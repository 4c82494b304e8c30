package lapack

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/mat"
)

func TestJacobiSVDDiagonal(t *testing.T) {
	a := mat.NewDense(4, 4)
	vals := []float64{3, 1, 4, 2}
	for i, v := range vals {
		a.Set(i, i, v)
	}
	sv := JacobiSVDValues(a)
	want := []float64{4, 3, 2, 1}
	for i := range want {
		if math.Abs(sv[i]-want[i]) > 1e-13 {
			t.Fatalf("sv = %v, want %v", sv, want)
		}
	}
}

func TestJacobiSVDKnownSingularValues(t *testing.T) {
	// Build A = Q1·diag(σ)·Q2ᵀ from Householder-orthogonal factors and
	// verify Jacobi recovers σ.
	rng := rand.New(rand.NewSource(61))
	m, n := 30, 8
	sigma := []float64{10, 5, 2, 1, 0.5, 1e-3, 1e-6, 1e-9}
	u := randomOrtho(rng, m, n)
	v := randomOrtho(rng, n, n)
	a := mat.NewDense(m, n)
	// a = u·diag·vᵀ
	ud := u.Clone()
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			ud.Set(i, j, ud.At(i, j)*sigma[j])
		}
	}
	blas.Gemm(parallel.Default, blas.NoTrans, blas.Trans, 1, ud, v, 0, a)
	sv := JacobiSVDValues(a)
	for i, want := range sigma {
		if math.Abs(sv[i]-want) > 1e-12*sigma[0] && math.Abs(sv[i]-want)/want > 1e-8 {
			t.Fatalf("sv[%d] = %g, want %g", i, sv[i], want)
		}
	}
}

func TestJacobiSVDWide(t *testing.T) {
	// Wide input goes through the transpose path.
	a := mat.NewDenseData(2, 3, []float64{1, 0, 0, 0, 2, 0})
	sv := JacobiSVDValues(a)
	if len(sv) != 2 || math.Abs(sv[0]-2) > 1e-14 || math.Abs(sv[1]-1) > 1e-14 {
		t.Fatalf("wide sv = %v, want [2 1]", sv)
	}
}

func TestCond2(t *testing.T) {
	a := mat.NewDense(3, 3)
	a.Set(0, 0, 8)
	a.Set(1, 1, 4)
	a.Set(2, 2, 2)
	if c := Cond2(a); math.Abs(c-4) > 1e-12 {
		t.Fatalf("Cond2 = %v, want 4", c)
	}
	sing := mat.NewDense(2, 2)
	sing.Set(0, 0, 1)
	if c := Cond2(sing); !math.IsInf(c, 1) {
		t.Fatalf("Cond2 of singular = %v, want +Inf", c)
	}
}

func TestNorm2(t *testing.T) {
	a := mat.NewDense(2, 2)
	a.Set(0, 0, 3)
	a.Set(1, 1, -7)
	if got := Norm2(a); math.Abs(got-7) > 1e-13 {
		t.Fatalf("Norm2 = %v, want 7", got)
	}
	if got := Norm2(mat.NewDense(0, 0)); got != 0 {
		t.Fatalf("Norm2 empty = %v", got)
	}
}

func TestJacobiOrthogonalInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	a := randMat(rng, 20, 6)
	q := randomOrtho(rng, 20, 20)
	qa := mat.NewDense(20, 6)
	blas.Gemm(parallel.Default, blas.NoTrans, blas.NoTrans, 1, q, a, 0, qa)
	s1 := JacobiSVDValues(a)
	s2 := JacobiSVDValues(qa)
	for i := range s1 {
		if math.Abs(s1[i]-s2[i]) > 1e-10*(1+s1[0]) {
			t.Fatalf("singular values not invariant under Q: %v vs %v", s1, s2)
		}
	}
}

// randomOrtho returns an m×n matrix with orthonormal columns via Geqrf+Orgqr.
func randomOrtho(rng *rand.Rand, m, n int) *mat.Dense {
	g := randMat(rng, m, n)
	tau := make([]float64, n)
	Geqrf(parallel.Default, g, tau)
	Orgqr(parallel.Default, g, tau)
	return g
}

// TestJacobiSVDFactors: the thin SVD reconstructs its input, its factors
// are orthonormal, and its values are JacobiSVDValues' bits — both run
// the same rotation loop, JacobiSVD only accumulating V on the side.
func TestJacobiSVDFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	m, n := 40, 9
	a := mat.NewDense(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	a.Slice(0, m, 5, 6).Copy(a.Slice(0, m, 2, 3)) // a repeated column: σ = 0 once
	u, s, v := JacobiSVD(a)
	vals := JacobiSVDValues(a)
	for j := range s {
		if math.Float64bits(s[j]) != math.Float64bits(vals[j]) {
			t.Fatalf("s[%d] = %g, JacobiSVDValues %g", j, s[j], vals[j])
		}
	}
	us := u.Clone()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			us.Set(i, j, us.At(i, j)*s[j])
		}
	}
	rec := mat.NewDense(m, n)
	blas.Gemm(parallel.Default, blas.NoTrans, blas.Trans, 1, us, v, 0, rec)
	if !mat.EqualApprox(rec, a, 1e-12) {
		t.Fatal("U·diag(s)·Vᵀ does not reconstruct a")
	}
	vtv := mat.NewDense(n, n)
	blas.Gemm(parallel.Default, blas.Trans, blas.NoTrans, 1, v, v, 0, vtv)
	if !mat.EqualApprox(vtv, mat.Identity(n), 1e-13) {
		t.Fatal("V is not orthogonal")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wide input accepted")
		}
	}()
	JacobiSVD(a.T())
}
