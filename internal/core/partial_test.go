package core

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

func TestPartialTruncatedApproximation(t *testing.T) {
	// Rank-r matrix, truncate at r: the approximation must be exact up to
	// the roundoff-level trailing singular values.
	rng := rand.New(rand.NewSource(141))
	m, n, r := 400, 24, 10
	a := testmat.Generate(rng, m, n, r, 1e-3)
	res, err := IteCholQRCP(parallel.Default, a, DefaultPivotTol, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rank < r {
		t.Fatalf("rank %d < requested %d", res.Rank, r)
	}
	if e := metrics.Orthogonality(res.Q); e > 1e-13 {
		t.Fatalf("orthogonality %g", e)
	}
	// ‖A·P − Q₁·R₁‖_F/‖A‖_F should be at trailing-σ level.
	ap := mat.NewDense(m, n)
	mat.PermuteCols(ap, a, res.Perm)
	blas.Gemm(parallel.Default, blas.NoTrans, blas.NoTrans, -1, res.Q, res.R, 1, ap)
	if rel := ap.FrobeniusNorm() / a.FrobeniusNorm(); rel > 1e-12 {
		t.Fatalf("truncated residual %g, want roundoff", rel)
	}
}

func TestPartialLowRankErrorTracksSigma(t *testing.T) {
	// Truncating a full-rank graded matrix at k: error ≈ σ_(k+1).
	rng := rand.New(rand.NewSource(142))
	m, n := 300, 16
	sigma := 1e-8
	a := testmat.Generate(rng, m, n, n, sigma)
	sv := testmat.SigmaProfile(n, n, sigma)
	k := 8
	res, err := IteCholQRCP(parallel.Default, a, DefaultPivotTol, k)
	if err != nil {
		t.Fatal(err)
	}
	ap := mat.NewDense(m, n)
	mat.PermuteCols(ap, a, res.Perm)
	blas.Gemm(parallel.Default, blas.NoTrans, blas.NoTrans, -1, res.Q, res.R, 1, ap)
	errNorm := lapack.Norm2(ap)
	// Column-pivoted QR is rank-revealing up to a modest factor; the error
	// must sit within two orders of σ_(k+1) and below σ_k.
	if errNorm > 100*sv[res.Rank] || errNorm < sv[len(sv)-1]/10 {
		t.Fatalf("‖AP−Q₁R₁‖₂ = %g, σ_(k+1) = %g: not rank-revealing", errNorm, sv[res.Rank])
	}
}

func TestPartialFullRankEqualsFull(t *testing.T) {
	rng := rand.New(rand.NewSource(143))
	m, n := 200, 12
	a := testmat.Generate(rng, m, n, n, 1e-6)
	full, err := IteCholQRCP(parallel.Default, a, DefaultPivotTol, a.Cols)
	if err != nil {
		t.Fatal(err)
	}
	part, err := IteCholQRCP(parallel.Default, a, DefaultPivotTol, n)
	if err != nil {
		t.Fatal(err)
	}
	if part.Rank != n {
		t.Fatalf("rank %d, want %d", part.Rank, n)
	}
	for j := range full.Perm {
		if part.Perm[j] != full.Perm[j] {
			t.Fatalf("perm differs: %v vs %v", part.Perm, full.Perm)
		}
	}
	if !mat.EqualApprox(part.R, full.R, 1e-12*full.R.MaxAbs()) {
		t.Fatal("R differs between full and partial(n)")
	}
}

func TestPartialStopsEarlyOnNumericalRank(t *testing.T) {
	// Request more than the numerical rank: the trailing Schur complement
	// collapses and the iteration truncates instead of stalling.
	rng := rand.New(rand.NewSource(144))
	m, n, r := 300, 20, 6
	a := testmat.Generate(rng, m, n, r, 1e-2)
	res, err := IteCholQRCP(parallel.Default, a, 1e-5, n)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rank < r {
		t.Fatalf("rank %d < numerical rank %d", res.Rank, r)
	}
	// Whatever rank it settled on, the factorization must be accurate.
	ap := mat.NewDense(m, n)
	mat.PermuteCols(ap, a, res.Perm)
	blas.Gemm(parallel.Default, blas.NoTrans, blas.NoTrans, -1, res.Q, res.R, 1, ap)
	if rel := ap.FrobeniusNorm() / a.FrobeniusNorm(); rel > 1e-10 {
		t.Fatalf("residual %g after early stop", rel)
	}
}

func TestPartialCheaperThanFull(t *testing.T) {
	// Iterations for a small target rank must not exceed those of the full
	// factorization.
	rng := rand.New(rand.NewSource(145))
	a := testmat.Generate(rng, 500, 32, 32, 1e-12)
	full, err := IteCholQRCP(parallel.Default, a, DefaultPivotTol, a.Cols)
	if err != nil {
		t.Fatal(err)
	}
	part, err := IteCholQRCP(parallel.Default, a, DefaultPivotTol, 4)
	if err != nil {
		t.Fatal(err)
	}
	if part.Iterations > full.Iterations {
		t.Fatalf("partial took %d iterations > full %d", part.Iterations, full.Iterations)
	}
	if part.Iterations != 1 {
		t.Fatalf("rank-4 target should be fixed in the first iteration, took %d", part.Iterations)
	}
}

func TestPartialPanics(t *testing.T) {
	a := mat.NewDense(10, 5)
	mustPanicC(t, func() { IteCholQRCP(parallel.Default, a, 1e-5, 0) })                  //nolint:errcheck
	mustPanicC(t, func() { IteCholQRCP(parallel.Default, a, 1e-5, 6) })                  //nolint:errcheck
	mustPanicC(t, func() { IteCholQRCP(parallel.Default, a, -1, 3) })                    //nolint:errcheck
	mustPanicC(t, func() { IteCholQRCP(parallel.Default, mat.NewDense(3, 5), 1e-5, 2) }) //nolint:errcheck
}

func TestPartialQShape(t *testing.T) {
	rng := rand.New(rand.NewSource(146))
	a := testmat.Generate(rng, 100, 10, 10, 1e-4)
	res, err := IteCholQRCP(parallel.Default, a, DefaultPivotTol, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Q.Rows != 100 || res.Q.Cols != res.Rank {
		t.Fatalf("Q is %d×%d, want 100×%d", res.Q.Rows, res.Q.Cols, res.Rank)
	}
	if res.R.Rows != res.Rank || res.R.Cols != 10 {
		t.Fatalf("R is %d×%d, want %d×10", res.R.Rows, res.R.Cols, res.Rank)
	}
	if math.Abs(metrics.Orthogonality(res.Q)) > 1e-13 {
		t.Fatal("Q1 not orthonormal")
	}
}
