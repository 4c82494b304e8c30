package tsqrcp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/mat"
	"repro/metrics"
	"repro/testmat"
)

func TestQRCPPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	a := testmat.Generate(rng, 300, 20, 16, 1e-10)
	f, err := QRCP(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e := metrics.Orthogonality(f.Q); e > 1e-13 {
		t.Fatalf("orthogonality %g", e)
	}
	if r := metrics.Residual(a, f.Q, f.R, f.Perm); r > 1e-13 {
		t.Fatalf("residual %g", r)
	}
	ref := HouseholderQRCP(a, nil)
	if !metrics.AllCorrect(f.Perm, ref.Perm, 16) {
		t.Fatal("QRCP pivots differ from Householder baseline")
	}
	if f.Iterations < 1 {
		t.Fatal("iterations not reported")
	}
}

func TestQRCPOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(152))
	a := testmat.Generate(rng, 200, 10, 8, 1e-6)
	f1, err := NewEngine(1).QRCP(a, &Options{PivotTol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewEngine(2).QRCP(a, &Options{PivotTol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	for j := range f1.Perm {
		if f1.Perm[j] != f2.Perm[j] {
			t.Fatal("worker count must not change pivots")
		}
	}
}

func TestRankEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(153))
	for _, r := range []int{3, 10, 20} {
		a := testmat.Generate(rng, 200, 20, r, 1e-4)
		f, err := QRCP(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.NumericalRank(1e-8); got != r {
			t.Fatalf("Rank = %d, want %d", got, r)
		}
		if got := f.NumericalRank(0); got != r { // default tolerance
			t.Fatalf("Rank(default) = %d, want %d", got, r)
		}
	}
}

func TestRankEdgeCases(t *testing.T) {
	f := &Factorization{R: mat.NewDense(3, 3)}
	if f.NumericalRank(0) != 0 {
		t.Fatal("zero R must have rank 0")
	}
	f = &Factorization{R: mat.NewDense(0, 0)}
	if f.NumericalRank(0) != 0 {
		t.Fatal("empty R must have rank 0")
	}
}

func TestQRCPTruncatedReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(154))
	m, n, r := 250, 18, 7
	a := testmat.Generate(rng, m, n, r, 1e-2)
	tf, err := QRCPTruncated(a, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	approx := tf.Reconstruct()
	diff := a.Clone()
	for i := range diff.Data {
		diff.Data[i] -= approx.Data[i]
	}
	if rel := diff.FrobeniusNorm() / a.FrobeniusNorm(); rel > 1e-11 {
		t.Fatalf("rank-%d reconstruction error %g", r, rel)
	}
}

func TestUnpivotedFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(155))
	a := testmat.GenerateWellConditioned(rng, 300, 15, 1e3)
	for _, tc := range []struct {
		name string
		run  func() (*QR, error)
		tol  float64
	}{
		{"CholeskyQR", func() (*QR, error) { return CholeskyQR(a) }, 1e-9},
		{"CholeskyQR2", func() (*QR, error) { return CholeskyQR2(a) }, 1e-14},
		{"ShiftedCholeskyQR3", func() (*QR, error) { return ShiftedCholeskyQR3(a) }, 1e-14},
		{"HouseholderQR", func() (*QR, error) { return HouseholderQR(a), nil }, 1e-14},
	} {
		qr, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if e := metrics.Orthogonality(qr.Q); e > tc.tol {
			t.Fatalf("%s: orthogonality %g > %g", tc.name, e, tc.tol)
		}
		if r := metrics.Residual(a, qr.Q, qr.R, mat.IdentityPerm(15)); r > 1e-12 {
			t.Fatalf("%s: residual %g", tc.name, r)
		}
	}
}

func TestCholeskyQRBreakdownSurfacesTypedError(t *testing.T) {
	rng := rand.New(rand.NewSource(156))
	a := testmat.GenerateWellConditioned(rng, 200, 10, 1e15)
	if _, err := CholeskyQR(a); err == nil {
		t.Fatal("expected breakdown for κ=1e15")
	}
	// QRCP must handle the same matrix fine.
	f, err := QRCP(a, nil)
	if err != nil {
		t.Fatalf("QRCP on κ=1e15: %v", err)
	}
	if e := metrics.Orthogonality(f.Q); e > 1e-13 {
		t.Fatalf("QRCP orthogonality %g on ill-conditioned input", e)
	}
}

// TestReconstructInfTimesZeroIsNaN: Reconstruct is a plain GEMM, so a
// zero entry of Q times an infinite entry of R gives NaN, as IEEE
// arithmetic has it, instead of being skipped as a zero.
func TestReconstructInfTimesZeroIsNaN(t *testing.T) {
	q := mat.NewDense(2, 1)
	q.Set(1, 0, 1)
	r := mat.NewDense(1, 1)
	r.Set(0, 0, math.Inf(1))
	got := (&Factorization{Q: q, R: r, Perm: mat.IdentityPerm(1), Rank: 1}).Reconstruct()
	if !math.IsNaN(got.At(0, 0)) || !math.IsInf(got.At(1, 0), 1) {
		t.Fatalf("Q·R = [%g; %g], want [NaN; +Inf]", got.At(0, 0), got.At(1, 0))
	}
}

func TestPublicTSQRAndShiftedCholeskyQR3(t *testing.T) {
	rng := rand.New(rand.NewSource(158))
	a := testmat.GenerateWellConditioned(rng, 400, 12, 1e12)
	for _, tc := range []struct {
		name string
		run  func() (*QR, error)
	}{
		{"TSQR", func() (*QR, error) { return TSQR(a), nil }},
		{"ShiftedCholeskyQR3", func() (*QR, error) { return ShiftedCholeskyQR3(a) }},
	} {
		qr, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if e := metrics.Orthogonality(qr.Q); e > 1e-13 {
			t.Fatalf("%s: orthogonality %g at κ=1e12", tc.name, e)
		}
		if r := metrics.Residual(a, qr.Q, qr.R, mat.IdentityPerm(12)); r > 1e-12 {
			t.Fatalf("%s: residual %g", tc.name, r)
		}
	}
}

func TestPublicStrongRRQR(t *testing.T) {
	rng := rand.New(rand.NewSource(159))
	a := testmat.Generate(rng, 200, 16, 16, 1e-5)
	f, err := StrongRRQR(a, 10, 0) // default f
	if err != nil {
		t.Fatal(err)
	}
	if e := metrics.Orthogonality(f.Q); e > 1e-13 {
		t.Fatalf("orthogonality %g", e)
	}
	if r := metrics.Residual(a, f.Q, f.R, f.Perm); r > 1e-13 {
		t.Fatalf("residual %g", r)
	}
	if !f.Perm.IsValid() {
		t.Fatal("invalid perm")
	}
	one, err := NewEngine(1).StrongRRQR(a, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.EqualApprox(one.Q, f.Q, 0) || !mat.EqualApprox(one.R, f.R, 0) {
		t.Fatal("Engine.StrongRRQR at width 1 differs from StrongRRQR")
	}
}

func TestQRCPConcurrentUse(t *testing.T) {
	// The library must be safe for concurrent factorizations (each call
	// owns its workspaces; kernels share only the immutable worker bound).
	rng := rand.New(rand.NewSource(160))
	mats := make([]*mat.Dense, 4)
	for i := range mats {
		mats[i] = testmat.Generate(rng, 500, 16, 13, 1e-8)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(mats))
	for i := range mats {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := QRCP(mats[i], nil)
			if err != nil {
				errs[i] = err
				return
			}
			if e := metrics.Orthogonality(f.Q); e > 1e-13 {
				errs[i] = fmt.Errorf("orthogonality %g", e)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
}
