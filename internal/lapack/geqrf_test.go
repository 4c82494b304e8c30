package lapack

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/mat"
)

func randMat(rng *rand.Rand, m, n int) *mat.Dense {
	a := mat.NewDense(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	return a
}

// orthoError returns ‖QᵀQ − I‖_F.
func orthoError(q *mat.Dense) float64 {
	n := q.Cols
	g := mat.NewDense(n, n)
	blas.Gram(parallel.Default, g, q)
	for i := 0; i < n; i++ {
		g.Set(i, i, g.At(i, i)-1)
	}
	return g.FrobeniusNorm()
}

// residual returns ‖A − Q·R‖_F / ‖A‖_F.
func residual(a, q, r *mat.Dense) float64 {
	diff := a.Clone()
	blas.Gemm(parallel.Default, blas.NoTrans, blas.NoTrans, -1, q, r, 1, diff)
	return diff.FrobeniusNorm() / a.FrobeniusNorm()
}

func TestLarfgAnnihilates(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		alpha := rng.NormFloat64()
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		orig := append([]float64{alpha}, append([]float64(nil), x...)...)
		beta, tau := Larfg(alpha, x)
		// Apply H = I − τ·v·vᵀ to the original vector; expect [beta; 0].
		v := append([]float64{1}, x...)
		dot := 0.0
		for i := range v {
			dot += v[i] * orig[i]
		}
		for i := range v {
			orig[i] -= tau * v[i] * dot
		}
		if math.Abs(orig[0]-beta) > 1e-13*(1+math.Abs(beta)) {
			t.Fatalf("H·x head = %v, want beta = %v", orig[0], beta)
		}
		for i := 1; i < len(orig); i++ {
			if math.Abs(orig[i]) > 1e-13 {
				t.Fatalf("H·x tail not annihilated: %v", orig[i])
			}
		}
		// Norm preservation: |beta| == ‖[alpha; x_orig]‖.
		if tau < 0 || tau > 2 {
			t.Fatalf("tau = %v outside [0,2]", tau)
		}
	}
}

func TestLarfgZeroTail(t *testing.T) {
	beta, tau := Larfg(3.5, nil)
	if beta != 3.5 || tau != 0 {
		t.Fatalf("Larfg(3.5, nil) = (%v, %v), want (3.5, 0)", beta, tau)
	}
	x := []float64{0, 0}
	beta, tau = Larfg(-2, x)
	if beta != -2 || tau != 0 {
		t.Fatalf("zero tail: beta=%v tau=%v", beta, tau)
	}
}

func TestLarfgTinyValues(t *testing.T) {
	x := []float64{1e-300}
	beta, tau := Larfg(1e-300, x)
	want := math.Sqrt2 * 1e-300
	if math.Abs(math.Abs(beta)-want)/want > 1e-12 {
		t.Fatalf("tiny Larfg beta = %v, want ±%v", beta, want)
	}
	if tau == 0 || math.IsNaN(tau) {
		t.Fatalf("tiny Larfg tau = %v", tau)
	}
}

func TestLapy2(t *testing.T) {
	if got := lapy2(3, 4); math.Abs(got-5) > 1e-15 {
		t.Fatalf("lapy2(3,4) = %v", got)
	}
	if got := lapy2(0, -7); got != 7 {
		t.Fatalf("lapy2(0,-7) = %v", got)
	}
	if got := lapy2(1e300, 1e300); math.IsInf(got, 0) {
		t.Fatal("lapy2 overflowed")
	}
}

func TestGeqrfOrgqr(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []struct{ m, n int }{
		{1, 1}, {5, 3}, {20, 20}, {100, 7}, {65, 33}, {200, 64}, {50, 50},
	}
	for _, sh := range shapes {
		a := randMat(rng, sh.m, sh.n)
		fac := a.Clone()
		tau := make([]float64, min(sh.m, sh.n))
		Geqrf(parallel.Default, fac, tau)
		r := ExtractR(fac)
		if !r.IsUpperTriangular(0) {
			t.Fatalf("%dx%d: R not upper triangular", sh.m, sh.n)
		}
		q := fac // Orgqr overwrites in place
		Orgqr(parallel.Default, q, tau)
		if e := orthoError(q); e > 1e-13*math.Sqrt(float64(sh.n)) {
			t.Fatalf("%dx%d: ‖QᵀQ−I‖ = %g", sh.m, sh.n, e)
		}
		if res := residual(a, q, r); res > 1e-13 {
			t.Fatalf("%dx%d: residual %g", sh.m, sh.n, res)
		}
	}
}

func TestGeqrfWideMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m, n := 6, 10
	a := randMat(rng, m, n)
	fac := a.Clone()
	tau := make([]float64, m)
	Geqrf(parallel.Default, fac, tau)
	// R is the upper trapezoid; Q from the first m columns.
	r := mat.NewDense(m, n)
	for i := 0; i < m; i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, fac.At(i, j))
		}
	}
	qfac := fac.Slice(0, m, 0, m).Clone()
	Orgqr(parallel.Default, qfac, tau)
	if e := orthoError(qfac); e > 1e-13 {
		t.Fatalf("wide: ‖QᵀQ−I‖ = %g", e)
	}
	if res := residual(a, qfac, r); res > 1e-13 {
		t.Fatalf("wide: residual %g", res)
	}
}

func TestGeqrfDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := randMat(rng, 40, 10)
	f1, f2 := a.Clone(), a.Clone()
	t1, t2 := make([]float64, 10), make([]float64, 10)
	Geqrf(parallel.Default, f1, t1)
	Geqrf(parallel.Default, f2, t2)
	if !mat.EqualApprox(f1, f2, 0) {
		t.Fatal("Geqrf must be deterministic")
	}
}

func TestGeqrfPositiveDiagonalSignConvention(t *testing.T) {
	// LAPACK's Householder convention gives beta with sign opposite to the
	// leading element; just verify R's diagonal is nonzero for a full-rank
	// input.
	rng := rand.New(rand.NewSource(45))
	a := randMat(rng, 30, 8)
	tau := make([]float64, 8)
	Geqrf(parallel.Default, a, tau)
	for i := 0; i < 8; i++ {
		if a.At(i, i) == 0 {
			t.Fatalf("zero diagonal at %d for full-rank input", i)
		}
	}
}
