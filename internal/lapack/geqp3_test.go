package lapack

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/mat"
)

// checkQRCP validates a pivoted factorization: A·P == Q·R, Q orthonormal,
// R upper triangular with non-increasing |diag|.
func checkQRCP(t *testing.T, name string, a, fac *mat.Dense, tau []float64, jpvt mat.Perm, diagTol float64) {
	t.Helper()
	m, n := a.Rows, a.Cols
	if !jpvt.IsValid() {
		t.Fatalf("%s: invalid permutation %v", name, jpvt)
	}
	r := ExtractR(fac)
	q := fac.Clone()
	Orgqr(parallel.Default, q, tau)
	if e := orthoError(q); e > 1e-12*math.Sqrt(float64(n)) {
		t.Fatalf("%s: ‖QᵀQ−I‖ = %g", name, e)
	}
	ap := mat.NewDense(m, n)
	mat.PermuteCols(ap, a, jpvt)
	if res := residual(ap, q, r); res > 1e-12 {
		t.Fatalf("%s: ‖AP−QR‖/‖A‖ = %g", name, res)
	}
	// Pivoting property: |R(j,j)| is (weakly) decreasing, modulo roundoff.
	for j := 1; j < n; j++ {
		prev, cur := math.Abs(r.At(j-1, j-1)), math.Abs(r.At(j, j))
		if cur > prev*(1+diagTol) {
			t.Fatalf("%s: |R(%d,%d)|=%g > |R(%d,%d)|=%g", name, j, j, cur, j-1, j-1, prev)
		}
	}
}

func TestGeqpfRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	shapes := []struct{ m, n int }{{1, 1}, {10, 4}, {50, 20}, {120, 50}, {30, 30}}
	for _, sh := range shapes {
		a := randMat(rng, sh.m, sh.n)
		fac := a.Clone()
		tau := make([]float64, min(sh.m, sh.n))
		jpvt := make(mat.Perm, sh.n)
		Geqpf(parallel.Default, fac, tau, jpvt)
		checkQRCP(t, "Geqpf", a, fac, tau, jpvt, 1e-10)
	}
}

func TestGeqp3Random(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	shapes := []struct{ m, n int }{
		{1, 1}, {10, 4}, {50, 20}, {120, 50}, {30, 30}, {300, 100}, {64, 64}, {65, 40},
	}
	for _, sh := range shapes {
		a := randMat(rng, sh.m, sh.n)
		fac := a.Clone()
		tau := make([]float64, min(sh.m, sh.n))
		jpvt := make(mat.Perm, sh.n)
		Geqp3(parallel.Default, fac, tau, jpvt)
		checkQRCP(t, "Geqp3", a, fac, tau, jpvt, 1e-10)
	}
}

func TestGeqp3MatchesGeqpfPivots(t *testing.T) {
	// On generic random matrices the greedy pivot sequence is unambiguous,
	// so the blocked and unblocked algorithms must choose identical pivots.
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 10; trial++ {
		m := 40 + rng.Intn(100)
		n := 5 + rng.Intn(60)
		if n > m {
			n = m
		}
		a := randMat(rng, m, n)
		f1, f2 := a.Clone(), a.Clone()
		t1, t2 := make([]float64, n), make([]float64, n)
		p1, p2 := make(mat.Perm, n), make(mat.Perm, n)
		Geqpf(parallel.Default, f1, t1, p1)
		Geqp3(parallel.Default, f2, t2, p2)
		for j := range p1 {
			if p1[j] != p2[j] {
				t.Fatalf("trial %d (m=%d n=%d): pivot %d differs: %v vs %v",
					trial, m, n, j, p1, p2)
			}
		}
		// R factors must agree up to sign (signs are fixed by the pivots
		// here, so exact comparison with a loose tolerance is fine).
		r1, r2 := ExtractR(f1), ExtractR(f2)
		if !mat.EqualApprox(r1, r2, 1e-9*r1.MaxAbs()) {
			t.Fatalf("trial %d: R factors differ between Geqpf and Geqp3", trial)
		}
	}
}

func TestGeqp3RankDeficient(t *testing.T) {
	// Columns 3..5 are linear combinations of columns 0..2: numerical rank 3.
	rng := rand.New(rand.NewSource(54))
	m, n, r := 60, 6, 3
	base := randMat(rng, m, r)
	a := mat.NewDense(m, n)
	for j := 0; j < n; j++ {
		c := make([]float64, r)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		for i := 0; i < m; i++ {
			s := 0.0
			for l := 0; l < r; l++ {
				s += base.At(i, l) * c[l]
			}
			a.Set(i, j, s)
		}
	}
	fac := a.Clone()
	tau := make([]float64, n)
	jpvt := make(mat.Perm, n)
	Geqp3(parallel.Default, fac, tau, jpvt)
	rr := ExtractR(fac)
	lead := math.Abs(rr.At(0, 0))
	for j := 0; j < r; j++ {
		if math.Abs(rr.At(j, j)) < 1e-10*lead {
			t.Fatalf("leading diagonal %d too small: %g", j, rr.At(j, j))
		}
	}
	for j := r; j < n; j++ {
		if math.Abs(rr.At(j, j)) > 1e-10*lead {
			t.Fatalf("trailing diagonal %d too large for rank-%d matrix: %g", j, r, rr.At(j, j))
		}
	}
}

func TestGeqp3GradedColumns(t *testing.T) {
	// Strongly graded columns: pivot order must be by decreasing norm.
	m, n := 40, 8
	rng := rand.New(rand.NewSource(55))
	a := mat.NewDense(m, n)
	for j := 0; j < n; j++ {
		scale := math.Pow(10, float64(j-4)) // increasing norms with j
		for i := 0; i < m; i++ {
			a.Set(i, j, scale*rng.NormFloat64())
		}
	}
	fac := a.Clone()
	tau := make([]float64, n)
	jpvt := make(mat.Perm, n)
	Geqp3(parallel.Default, fac, tau, jpvt)
	if jpvt[0] != n-1 {
		t.Fatalf("first pivot should be the largest column %d, got %d", n-1, jpvt[0])
	}
	checkQRCP(t, "graded", a, fac, tau, jpvt, 1e-8)
}

func TestGeqpfDuplicateColumns(t *testing.T) {
	// Identical columns exercise the norm-downdate cancellation path.
	rng := rand.New(rand.NewSource(56))
	m, n := 50, 6
	a := randMat(rng, m, n)
	for i := 0; i < m; i++ {
		a.Set(i, 3, a.At(i, 1))
		a.Set(i, 5, a.At(i, 1))
	}
	fac := a.Clone()
	tau := make([]float64, n)
	jpvt := make(mat.Perm, n)
	Geqpf(parallel.Default, fac, tau, jpvt)
	checkQRCP(t, "dup", a, fac, tau, jpvt, 1e-8)
	r := ExtractR(fac)
	zeros := 0
	for j := 0; j < n; j++ {
		if math.Abs(r.At(j, j)) < 1e-12*math.Abs(r.At(0, 0)) {
			zeros++
		}
	}
	if zeros != 2 {
		t.Fatalf("expected exactly 2 negligible diagonals for 2 duplicate columns, got %d", zeros)
	}
}

func TestGeqp3ZeroMatrix(t *testing.T) {
	a := mat.NewDense(10, 4)
	tau := make([]float64, 4)
	jpvt := make(mat.Perm, 4)
	Geqp3(parallel.Default, a, tau, jpvt) // must not panic or produce NaN
	for _, v := range a.Data {
		if math.IsNaN(v) {
			t.Fatal("NaN in factorization of zero matrix")
		}
	}
	if !jpvt.IsValid() {
		t.Fatalf("invalid pivot for zero matrix: %v", jpvt)
	}
}
