package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/mat"
	"repro/metrics"
	"repro/testmat"
)

func TestCholQRWellConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, sh := range []struct{ m, n int }{{10, 3}, {100, 20}, {500, 50}} {
		a := testmat.GenerateWellConditioned(rng, sh.m, sh.n, 10)
		qr, err := CholQR(parallel.Default, a)
		if err != nil {
			t.Fatalf("%d×%d: %v", sh.m, sh.n, err)
		}
		if e := metrics.Orthogonality(qr.Q); e > 1e-12 {
			t.Fatalf("%d×%d: orthogonality %g", sh.m, sh.n, e)
		}
		if res := metrics.Residual(a, qr.Q, qr.R, mat.IdentityPerm(sh.n)); res > 1e-13 {
			t.Fatalf("%d×%d: residual %g", sh.m, sh.n, res)
		}
		if !qr.R.IsUpperTriangular(0) {
			t.Fatal("R not upper triangular")
		}
	}
}

func TestCholQROrthogonalityDegradesWithCondition(t *testing.T) {
	// The known weakness: orthogonality error grows like u·κ².
	rng := rand.New(rand.NewSource(102))
	a4 := testmat.GenerateWellConditioned(rng, 300, 10, 1e4)
	a6 := testmat.GenerateWellConditioned(rng, 300, 10, 1e6)
	q4, err := CholQR(parallel.Default, a4)
	if err != nil {
		t.Fatal(err)
	}
	q6, err := CholQR(parallel.Default, a6)
	if err != nil {
		t.Fatal(err)
	}
	e4, e6 := metrics.Orthogonality(q4.Q), metrics.Orthogonality(q6.Q)
	if e6 < 10*e4 {
		t.Fatalf("orthogonality should degrade with κ: e(1e4)=%g e(1e6)=%g", e4, e6)
	}
}

func TestCholQRBreaksDownWhenVeryIllConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	a := testmat.GenerateWellConditioned(rng, 200, 10, 1e14)
	_, err := CholQR(parallel.Default, a)
	if !errors.Is(err, ErrBreakdown) {
		t.Fatalf("κ=1e14 CholQR should break down, got err=%v", err)
	}
}

func TestCholQR2AccurateUpToSqrtU(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for _, cond := range []float64{1e2, 1e5, 1e7} {
		a := testmat.GenerateWellConditioned(rng, 400, 15, cond)
		qr, err := CholQR2(parallel.Default, a)
		if err != nil {
			t.Fatalf("κ=%g: %v", cond, err)
		}
		if e := metrics.Orthogonality(qr.Q); e > 1e-14 {
			t.Fatalf("κ=%g: CholeskyQR2 orthogonality %g", cond, e)
		}
		if res := metrics.Residual(a, qr.Q, qr.R, mat.IdentityPerm(15)); res > 1e-13 {
			t.Fatalf("κ=%g: residual %g", cond, res)
		}
	}
}

func TestShiftedCholQR3IllConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	for _, cond := range []float64{1e10, 1e13} {
		a := testmat.GenerateWellConditioned(rng, 500, 12, cond)
		qr, err := ShiftedCholQR3(parallel.Default, a)
		if err != nil {
			t.Fatalf("κ=%g: %v", cond, err)
		}
		if e := metrics.Orthogonality(qr.Q); e > 1e-13 {
			t.Fatalf("κ=%g: shifted CholeskyQR3 orthogonality %g", cond, e)
		}
		if res := metrics.Residual(a, qr.Q, qr.R, mat.IdentityPerm(12)); res > 1e-12 {
			t.Fatalf("κ=%g: residual %g", cond, res)
		}
	}
}

func TestHouseholderQRReference(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	a := testmat.GenerateWellConditioned(rng, 150, 40, 1e8)
	qr := HouseholderQR(parallel.Default, a)
	if e := metrics.Orthogonality(qr.Q); e > 1e-14 {
		t.Fatalf("orthogonality %g", e)
	}
	if res := metrics.Residual(a, qr.Q, qr.R, mat.IdentityPerm(40)); res > 1e-13 {
		t.Fatalf("residual %g", res)
	}
}

func TestCholQRDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	a := testmat.GenerateWellConditioned(rng, 50, 5, 10)
	orig := a.Clone()
	if _, err := CholQR(parallel.Default, a); err != nil {
		t.Fatal(err)
	}
	if _, err := CholQR2(parallel.Default, a); err != nil {
		t.Fatal(err)
	}
	if _, err := ShiftedCholQR3(parallel.Default, a); err != nil {
		t.Fatal(err)
	}
	HouseholderQR(parallel.Default, a)
	if !mat.EqualApprox(a, orig, 0) {
		t.Fatal("input matrix was modified")
	}
}
