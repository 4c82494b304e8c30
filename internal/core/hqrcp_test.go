package core

import (
	"math/rand"
	"testing"

	"repro/mat"
	"repro/metrics"
	"repro/testmat"
)

func TestHQRCPContract(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for _, sigma := range []float64{1e-3, 1e-12} {
		a := testmat.Generate(rng, 300, 24, 20, sigma)
		res := HQRCP(nil, a)
		checkCP(t, "hqrcp", a, res, 1e-13, 1e-13)
	}
}

func TestHQRCPNoQ(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	a := testmat.Generate(rng, 150, 12, 10, 1e-6)
	full := HQRCP(nil, a)
	noq := HQRCPNoQ(nil, a)
	if noq.Q != nil {
		t.Fatal("HQRCPNoQ must not form Q")
	}
	for j := range full.Perm {
		if noq.Perm[j] != full.Perm[j] {
			t.Fatal("NoQ variant must select the same pivots")
		}
	}
	if !mat.EqualApprox(noq.R, full.R, 0) {
		t.Fatal("NoQ variant must produce the same R")
	}
}

func TestHQRCPPivotsAreNormGreedy(t *testing.T) {
	// First pivot must be the column of maximum norm.
	rng := rand.New(rand.NewSource(124))
	m, n := 80, 6
	a := mat.NewDense(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	// Make column 4 clearly dominant.
	for i := 0; i < m; i++ {
		a.Set(i, 4, 100*a.At(i, 4))
	}
	res := HQRCP(nil, a)
	if res.Perm[0] != 4 {
		t.Fatalf("first pivot %d, want 4", res.Perm[0])
	}
}

func TestHQRCPRankRevealing(t *testing.T) {
	rng := rand.New(rand.NewSource(125))
	m, n, r := 400, 20, 12
	a := testmat.Generate(rng, m, n, r, 1e-4)
	res := HQRCP(nil, a)
	// κ₂(R₁₁) ≈ 1/σ = 1e4 and ‖R₂₂‖₂ tiny.
	c := metrics.CondR11(res.R, r)
	if c > 1e5 {
		t.Fatalf("κ₂(R₁₁) = %g, want ≈ 1e4", c)
	}
	if nr := metrics.NormR22(res.R, r); nr > 1e-12 {
		t.Fatalf("‖R₂₂‖₂ = %g, want roundoff", nr)
	}
}

func TestHQRCPPanicsOnWide(t *testing.T) {
	mustPanicC(t, func() { HQRCP(nil, mat.NewDense(3, 5)) })
}

func TestHQRCPTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(126))
	m, n, r := 300, 20, 8
	a := testmat.Generate(rng, m, n, r, 1e-2)
	res := HQRCPTruncated(nil, a, r)
	if res.Rank != r || res.Q.Cols != r || res.R.Rows != r {
		t.Fatalf("shape: rank=%d Q %d×%d R %d×%d", res.Rank, res.Q.Rows, res.Q.Cols, res.R.Rows, res.R.Cols)
	}
	if e := metrics.Orthogonality(res.Q); e > 1e-13 {
		t.Fatalf("orthogonality %g", e)
	}
	// Exact-rank matrix: truncated residual at roundoff.
	ap := mat.NewDense(m, n)
	mat.PermuteCols(ap, a, res.Perm)
	diff := ap.Clone()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for l := 0; l < r; l++ {
				s += res.Q.At(i, l) * res.R.At(l, j)
			}
			diff.Set(i, j, ap.At(i, j)-s)
		}
	}
	if rel := diff.FrobeniusNorm() / a.FrobeniusNorm(); rel > 1e-12 {
		t.Fatalf("truncated residual %g", rel)
	}
	// Pivots must match the full factorization's prefix.
	full := HQRCPNoQ(nil, a)
	for j := 0; j < r; j++ {
		if res.Perm[j] != full.Perm[j] {
			t.Fatalf("truncated pivots diverge from full at %d", j)
		}
	}
}

func TestHQRCPTruncatedMatchesIteTruncatedPivots(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	a := testmat.Generate(rng, 400, 24, 20, 1e-8)
	h := HQRCPTruncated(nil, a, 10)
	ite, err := IteCholQRCPPartial(nil, a, DefaultPivotTol, 10)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 10; j++ {
		if h.Perm[j] != ite.Perm[j] {
			t.Fatalf("truncated pivot %d differs: HQR %v vs Ite %v", j, h.Perm[:10], ite.Perm[:10])
		}
	}
}

func TestHQRCPTruncatedPanics(t *testing.T) {
	a := mat.NewDense(10, 5)
	mustPanicC(t, func() { HQRCPTruncated(nil, a, 0) })
	mustPanicC(t, func() { HQRCPTruncated(nil, a, 6) })
	mustPanicC(t, func() { HQRCPTruncated(nil, mat.NewDense(3, 5), 2) })
}
