package subspace

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/parallel"
	"repro/mat"
	"repro/metrics"
	"repro/testmat"
)

func TestRandSVDExactRank(t *testing.T) {
	rng := rand.New(rand.NewSource(281))
	m, n, k := 300, 40, 6
	a := testmat.Generate(rng, m, n, k, 1e-1)
	res, err := RandSVD(a, k, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Factors orthonormal.
	if e := metrics.Orthogonality(res.U); e > 1e-12 {
		t.Fatalf("U orthogonality %g", e)
	}
	if e := metrics.Orthogonality(res.V); e > 1e-12 {
		t.Fatalf("V orthogonality %g", e)
	}
	// Singular values match the construction.
	want := testmat.SigmaProfile(n, k, 1e-1)
	for j := 0; j < k; j++ {
		if math.Abs(res.S[j]-want[j])/want[j] > 1e-8 {
			t.Fatalf("S[%d] = %g, want %g", j, res.S[j], want[j])
		}
	}
	// Reconstruction exact (numerical rank k).
	us := res.U.Clone()
	for j := 0; j < k; j++ {
		for i := 0; i < m; i++ {
			us.Set(i, j, us.At(i, j)*res.S[j])
		}
	}
	rec := mat.NewDense(m, n)
	blas.Gemm(parallel.Default, blas.NoTrans, blas.Trans, 1, us, res.V, 0, rec)
	diff := a.Clone()
	for i := range diff.Data {
		diff.Data[i] -= rec.Data[i]
	}
	if rel := diff.FrobeniusNorm() / a.FrobeniusNorm(); rel > 1e-10 {
		t.Fatalf("reconstruction error %g", rel)
	}
}

func TestRandSVDNearOptimalError(t *testing.T) {
	// Full-rank graded matrix: rank-k error must be within a modest factor
	// of the optimal Σ_{i>k} bound.
	rng := rand.New(rand.NewSource(282))
	m, n, k := 400, 24, 8
	sigma := 1e-6
	a := testmat.Generate(rng, m, n, n, sigma)
	sv := testmat.SigmaProfile(n, n, sigma)
	res, err := RandSVD(a, k, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	us := res.U.Clone()
	for j := 0; j < k; j++ {
		for i := 0; i < m; i++ {
			us.Set(i, j, us.At(i, j)*res.S[j])
		}
	}
	rec := mat.NewDense(m, n)
	blas.Gemm(parallel.Default, blas.NoTrans, blas.Trans, 1, us, res.V, 0, rec)
	diff := a.Clone()
	for i := range diff.Data {
		diff.Data[i] -= rec.Data[i]
	}
	opt := 0.0
	for i := k; i < n; i++ {
		opt += sv[i] * sv[i]
	}
	opt = math.Sqrt(opt)
	if got := diff.FrobeniusNorm(); got > 10*opt {
		t.Fatalf("rank-%d error %g vs optimal %g", k, got, opt)
	}
}

func TestThinSVDSmall(t *testing.T) {
	// Exact small case: singular values of a diagonal-ish matrix.
	x := mat.NewDenseData(3, 2, []float64{3, 0, 0, 4, 0, 0})
	w, s, z := lapack.JacobiSVD(x)
	if math.Abs(s[0]-4) > 1e-14 || math.Abs(s[1]-3) > 1e-14 {
		t.Fatalf("s = %v, want [4 3]", s)
	}
	// W·diag(s)·Zᵀ == X.
	rec := mat.NewDense(3, 2)
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			v := 0.0
			for l := 0; l < 2; l++ {
				v += w.At(i, l) * s[l] * z.At(j, l)
			}
			rec.Set(i, j, v)
		}
	}
	if !mat.EqualApprox(rec, x, 1e-13) {
		t.Fatal("JacobiSVD reconstruction failed")
	}
}

func TestRandSVDPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(283))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RandSVD(mat.NewDense(10, 4), 5, 1, rng) //nolint:errcheck
}
