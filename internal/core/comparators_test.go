package core

import (
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/mat"
	"repro/metrics"
	"repro/testmat"
)

func TestTSQRMatchesHouseholder(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	for _, sh := range []struct{ m, n int }{
		{100, 10},  // single leaf
		{5000, 16}, // two levels
		{9000, 7},  // uneven split, three levels
		{4097, 33}, // odd row count
	} {
		a := testmat.GenerateWellConditioned(rng, sh.m, sh.n, 1e6)
		qr := TSQR(parallel.Default, a)
		if e := metrics.Orthogonality(qr.Q); e > 1e-13 {
			t.Fatalf("%dx%d: orthogonality %g", sh.m, sh.n, e)
		}
		if res := metrics.Residual(a, qr.Q, qr.R, mat.IdentityPerm(sh.n)); res > 1e-13 {
			t.Fatalf("%dx%d: residual %g", sh.m, sh.n, res)
		}
		if !qr.R.IsUpperTriangular(0) {
			t.Fatal("R not upper triangular")
		}
	}
}

func TestTSQRIllConditioned(t *testing.T) {
	// TSQR is Householder throughout: it must survive κ₂ where CholQR2
	// breaks down.
	rng := rand.New(rand.NewSource(162))
	a := testmat.GenerateWellConditioned(rng, 6000, 12, 1e14)
	if _, err := CholQR2(parallel.Default, a); err == nil {
		t.Log("CholQR2 survived 1e14 (unusual but possible); continuing")
	}
	qr := TSQR(parallel.Default, a)
	if e := metrics.Orthogonality(qr.Q); e > 1e-13 {
		t.Fatalf("TSQR orthogonality %g at κ=1e14", e)
	}
}

func TestTSQRPanicsOnWide(t *testing.T) {
	mustPanicC(t, func() { TSQR(parallel.Default, mat.NewDense(3, 5)) })
}

func TestQRThenQRCPMatchesHQRCPPivots(t *testing.T) {
	// §V: the Cunha–Patterson comparator selects the same pivots as
	// HQR-CP (both run Householder QRCP — one on A, one on R₀).
	rng := rand.New(rand.NewSource(163))
	// Full-rank κ₂=1e6 matrix so even the CholQR2 inner kernel is usable;
	// the rank-deficient case is covered by the robust-inner test below.
	for _, inner := range []struct {
		name string
		qr   func(*parallel.Engine, *mat.Dense) (*QR, error)
	}{{"CholQR2", CholQR2}, {"TSQR", Infallible(TSQR)}, {"HouseholderQR", Infallible(HouseholderQR)}} {
		a := testmat.Generate(rng, 2000, 24, 24, 1e-6)
		ref := HQRCP(parallel.Default, a)
		res, err := QRThenQRCP(parallel.Default, a, inner.qr)
		if err != nil {
			t.Fatalf("inner=%s: %v", inner.name, err)
		}
		if !metrics.AllCorrect(res.Perm, ref.Perm, 24) {
			t.Fatalf("inner=%s: pivots differ:\n got %v\n ref %v", inner.name, res.Perm, ref.Perm)
		}
		checkCP(t, "qr-then-qrcp", a, res, 1e-12, 1e-12)
	}
}

func TestQRThenQRCPIllConditionedNeedsRobustInner(t *testing.T) {
	rng := rand.New(rand.NewSource(164))
	a := testmat.Generate(rng, 3000, 16, 16, 1e-13)
	// CholQR2 inner breaks down...
	if _, err := QRThenQRCP(parallel.Default, a, CholQR2); err == nil {
		t.Log("CholQR2 inner unexpectedly survived κ=1e13")
	}
	// ...shifted CholQR3 and TSQR handle it.
	for _, inner := range []struct {
		name string
		qr   func(*parallel.Engine, *mat.Dense) (*QR, error)
	}{{"ShiftedCholQR3", ShiftedCholQR3}, {"TSQR", Infallible(TSQR)}} {
		res, err := QRThenQRCP(parallel.Default, a, inner.qr)
		if err != nil {
			t.Fatalf("inner=%s: %v", inner.name, err)
		}
		checkCP(t, "qr-then-qrcp-ill", a, res, 1e-12, 1e-12)
	}
}
