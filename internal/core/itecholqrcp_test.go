package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/mat"
	"repro/metrics"
	"repro/testmat"
)

// checkCP validates the factorization contract of any QRCP result.
func checkCP(t *testing.T, name string, a *mat.Dense, res *CPResult, orthTol, resTol float64) {
	t.Helper()
	if !res.Perm.IsValid() {
		t.Fatalf("%s: invalid permutation %v", name, res.Perm)
	}
	if !res.R.IsUpperTriangular(0) {
		t.Fatalf("%s: R not upper triangular", name)
	}
	if e := metrics.Orthogonality(res.Q); e > orthTol {
		t.Fatalf("%s: orthogonality %g > %g", name, e, orthTol)
	}
	if r := metrics.Residual(a, res.Q, res.R, res.Perm); r > resTol {
		t.Fatalf("%s: residual %g > %g", name, r, resTol)
	}
}

func TestIteCholQRCPWellConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	a := testmat.GenerateWellConditioned(rng, 200, 20, 100)
	res, err := IteCholQRCP(nil, a, DefaultPivotTol)
	if err != nil {
		t.Fatal(err)
	}
	checkCP(t, "ite", a, res, 1e-14, 1e-13)
	if res.Iterations < 1 || res.Iterations > 3 {
		t.Fatalf("iterations = %d, want small for κ=100", res.Iterations)
	}
}

func TestIteCholQRCPMatchesHQRCPPivots(t *testing.T) {
	// The paper's headline accuracy claim (Fig. 3a): with ε = 1e-5 the
	// pivot selection matches HQR-CP for the essential (leading r) pivots,
	// across the full range of condition numbers.
	rng := rand.New(rand.NewSource(112))
	m, n, r := 800, 25, 20
	for _, sigma := range []float64{1e-2, 1e-6, 1e-10, 1e-14} {
		a := testmat.Generate(rng, m, n, r, sigma)
		ref := HQRCP(nil, a)
		res, err := IteCholQRCP(nil, a, DefaultPivotTol)
		if err != nil {
			t.Fatalf("σ=%g: %v", sigma, err)
		}
		if !metrics.AllCorrect(res.Perm, ref.Perm, r) {
			prefix := metrics.CountCorrectPrefix(res.Perm, ref.Perm)
			t.Fatalf("σ=%g: pivots diverge at %d (< r=%d)\n got %v\n ref %v",
				sigma, prefix, r, res.Perm[:r], ref.Perm[:r])
		}
		checkCP(t, "ite", a, res, 1e-13, 1e-13)
	}
}

func TestIteCholQRCPEps0UnstableForIllConditioned(t *testing.T) {
	// Fig. 3(b): with ε = 0 the pivots go wrong once κ₂(A) > 1e8.
	rng := rand.New(rand.NewSource(113))
	m, n, r := 800, 25, 20
	diverged := false
	for _, sigma := range []float64{1e-10, 1e-12, 1e-14} {
		a := testmat.Generate(rng, m, n, r, sigma)
		ref := HQRCP(nil, a)
		res, err := IteCholQRCP(nil, a, 0)
		if err != nil {
			// Breakdown also demonstrates the instability; accept it.
			diverged = true
			continue
		}
		if !metrics.AllCorrect(res.Perm, ref.Perm, r) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("ε=0 should misselect pivots for at least one κ₂(A) > 1e8 case")
	}
}

func TestIteCholQRCPAccuracySweep(t *testing.T) {
	// Fig. 2: orthogonality and residual at Householder level for all σ.
	rng := rand.New(rand.NewSource(114))
	m, n, r := 500, 30, 24
	for _, sigma := range []float64{1e-2, 1e-8, 1e-14} {
		a := testmat.Generate(rng, m, n, r, sigma)
		res, err := IteCholQRCP(nil, a, DefaultPivotTol)
		if err != nil {
			t.Fatalf("σ=%g: %v", sigma, err)
		}
		checkCP(t, "ite", a, res, 5e-14, 5e-13)
		// κ₂(R₁₁) should be ≈ 1/σ (well-conditioned leading block)...
		c := metrics.CondR11(res.R, r)
		if c > 10/sigma {
			t.Fatalf("σ=%g: κ₂(R₁₁) = %g too large", sigma, c)
		}
		// ...and ‖R₂₂‖₂ at roundoff level.
		if nr := metrics.NormR22(res.R, r); nr > 1e-12 {
			t.Fatalf("σ=%g: ‖R₂₂‖₂ = %g, want ≈ u", sigma, nr)
		}
	}
}

func TestIteCholQRCPIterationCount(t *testing.T) {
	// §III-D2: with ε = 1e-5 and κ up to 1e16, expect ≤ 4 pivoting
	// iterations (ε^l ≲ u). σ=1e-12 matches the paper's timing runs, where
	// pivoting completes in 3 iterations.
	rng := rand.New(rand.NewSource(115))
	a := testmat.Generate(rng, 1000, 32, 26, 1e-12)
	res, err := IteCholQRCP(nil, a, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 4 {
		t.Fatalf("iterations = %d, want ≤ 4", res.Iterations)
	}
	sum := 0
	for _, c := range res.PivotCounts {
		sum += c
	}
	if sum != 32 {
		t.Fatalf("pivot counts %v sum to %d, want n=32", res.PivotCounts, sum)
	}
	// PivotIter must be non-decreasing and consistent with PivotCounts.
	for j := 1; j < len(res.PivotIter); j++ {
		if res.PivotIter[j] < res.PivotIter[j-1] {
			t.Fatalf("PivotIter not monotone: %v", res.PivotIter)
		}
	}
}

func TestIteCholQRCPTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(116))
	a := testmat.Generate(rng, 300, 16, 13, 1e-12)
	var iters []int
	var counts []int
	res, err := IteCholQRCPTraced(nil, a, 1e-5, func(it, kNew int, perm mat.Perm) {
		iters = append(iters, it)
		counts = append(counts, kNew)
		if !perm.IsValid() {
			t.Fatalf("trace got invalid perm at iter %d", it)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != res.Iterations {
		t.Fatalf("trace called %d times, want %d", len(iters), res.Iterations)
	}
	for i, c := range counts {
		if c != res.PivotCounts[i] {
			t.Fatalf("trace counts %v != result counts %v", counts, res.PivotCounts)
		}
	}
}

func TestIteCholQRCPFullRankNoGap(t *testing.T) {
	// n = r (no trailing roundoff directions), moderately conditioned.
	rng := rand.New(rand.NewSource(117))
	a := testmat.Generate(rng, 400, 24, 24, 1e-9)
	ref := HQRCP(nil, a)
	res, err := IteCholQRCP(nil, a, DefaultPivotTol)
	if err != nil {
		t.Fatal(err)
	}
	checkCP(t, "full-rank", a, res, 1e-13, 1e-13)
	if !metrics.AllCorrect(res.Perm, ref.Perm, 24) {
		t.Fatalf("pivots differ from HQR-CP: %v vs %v", res.Perm, ref.Perm)
	}
}

func TestIteCholQRCPSingleColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(118))
	a := mat.NewDense(50, 1)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	res, err := IteCholQRCP(nil, a, DefaultPivotTol)
	if err != nil {
		t.Fatal(err)
	}
	checkCP(t, "single", a, res, 1e-14, 1e-14)
	if res.Perm[0] != 0 {
		t.Fatal("single column must keep identity perm")
	}
}

func TestIteCholQRCPZeroMatrixStalls(t *testing.T) {
	a := mat.NewDense(20, 3)
	_, err := IteCholQRCP(nil, a, DefaultPivotTol)
	if !errors.Is(err, ErrStall) {
		t.Fatalf("zero matrix: err = %v, want ErrStall", err)
	}
}

func TestIteCholQRCPPanics(t *testing.T) {
	mustPanicC(t, func() { IteCholQRCP(nil, mat.NewDense(3, 5), 1e-5) }) //nolint:errcheck
	mustPanicC(t, func() { IteCholQRCP(nil, mat.NewDense(5, 3), 1.5) })  //nolint:errcheck
	mustPanicC(t, func() { IteCholQRCP(nil, mat.NewDense(5, 3), -1) })   //nolint:errcheck
}

func TestIteCholQRCPDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(119))
	a := testmat.Generate(rng, 100, 8, 6, 1e-6)
	orig := a.Clone()
	if _, err := IteCholQRCP(nil, a, DefaultPivotTol); err != nil {
		t.Fatal(err)
	}
	if !mat.EqualApprox(a, orig, 0) {
		t.Fatal("input modified")
	}
}

func TestIteCholQRCPDiagonalDecreasing(t *testing.T) {
	// |R(j,j)| must be (weakly) decreasing across the essential block, as
	// for any greedy column-pivoted QR.
	rng := rand.New(rand.NewSource(120))
	a := testmat.Generate(rng, 600, 20, 16, 1e-10)
	res, err := IteCholQRCP(nil, a, DefaultPivotTol)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < 16; j++ {
		prev := math.Abs(res.R.At(j-1, j-1))
		cur := math.Abs(res.R.At(j, j))
		if cur > prev*(1+1e-8) {
			t.Fatalf("|R(%d,%d)| = %g > |R(%d,%d)| = %g", j, j, cur, j-1, j-1, prev)
		}
	}
}

func mustPanicC(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestIteCholQRCPNaNInputFailsCleanly(t *testing.T) {
	// Non-finite input must produce an error, never a hang or panic.
	if debugChecksEnabled {
		t.Skip("debugchecks converts the graceful non-finite error path into a deliberate panic")
	}
	rng := rand.New(rand.NewSource(128))
	a := testmat.GenerateWellConditioned(rng, 100, 8, 10)
	a.Set(50, 3, math.NaN())
	if _, err := IteCholQRCP(nil, a, DefaultPivotTol); err == nil {
		t.Fatal("NaN input must error")
	}
	a.Set(50, 3, math.Inf(1))
	if _, err := IteCholQRCP(nil, a, DefaultPivotTol); err == nil {
		t.Fatal("Inf input must error")
	}
}

func TestIteCholQRCPTiesAreDeterministic(t *testing.T) {
	// Exactly tied column norms: the pivot choice must be deterministic
	// (lowest index wins), so repeated runs agree bit-for-bit.
	rng := rand.New(rand.NewSource(129))
	m, n := 120, 6
	a := mat.NewDense(m, n)
	for i := 0; i < m; i++ {
		v := rng.NormFloat64()
		w := rng.NormFloat64()
		a.Set(i, 0, v)
		a.Set(i, 1, w)
		a.Set(i, 2, -v) // same norm as column 0
		a.Set(i, 3, 0.5*w)
		a.Set(i, 4, rng.NormFloat64())
		a.Set(i, 5, 0.25*rng.NormFloat64())
	}
	r1, err := IteCholQRCP(nil, a, DefaultPivotTol)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := IteCholQRCP(nil, a, DefaultPivotTol)
	if err != nil {
		t.Fatal(err)
	}
	for j := range r1.Perm {
		if r1.Perm[j] != r2.Perm[j] {
			t.Fatalf("tied pivots not deterministic: %v vs %v", r1.Perm, r2.Perm)
		}
	}
	if !mat.EqualApprox(r1.R, r2.R, 0) {
		t.Fatal("repeated runs must be bit-identical")
	}
}

func TestIteCholQRCPWidthInvariant(t *testing.T) {
	// The fixed-order kernels make the whole factorization — Q, R,
	// pivots, iteration count — bit-identical across engine widths.
	// This is also what lets the out-of-core path compare against any
	// in-core run regardless of parallelism. n ≥ 128 adds Cholesky
	// panels past the first 64 columns and wide Schur updates.
	rng := rand.New(rand.NewSource(130))
	for _, sh := range []struct{ m, n int }{{700, 12}, {5000, 24}, {6000, 128}, {6000, 160}} {
		a := testmat.Generate(rng, sh.m, sh.n, sh.n-sh.n/4, 1e-10)
		var ref *CPResult
		for _, w := range []int{1, 2, 3, 8} {
			res, err := IteCholQRCP(parallel.NewEngine(w), a, DefaultPivotTol)
			if err != nil {
				t.Fatalf("m=%d n=%d width %d: %v", sh.m, sh.n, w, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if res.Iterations != ref.Iterations {
				t.Fatalf("m=%d n=%d width %d: %d iterations, width 1 had %d",
					sh.m, sh.n, w, res.Iterations, ref.Iterations)
			}
			requireSameCP(t, fmt.Sprintf("m=%d n=%d width %d", sh.m, sh.n, w), res, ref)
		}
	}
}
