package blas

import (
	"math"
	"testing"
	"testing/quick"
)

func TestScal(t *testing.T) {
	x := []float64{1, -2, 3}
	Scal(-2, x)
	want := []float64{-2, 4, -6}
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("Scal x = %v, want %v", x, want)
		}
	}
}

func TestNrm2(t *testing.T) {
	if got := Nrm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Nrm2 = %v, want 5", got)
	}
	if got := Nrm2(nil); got != 0 {
		t.Fatalf("Nrm2(nil) = %v, want 0", got)
	}
	// Overflow guard.
	got := Nrm2([]float64{1e300, 1e300})
	if math.IsInf(got, 0) {
		t.Fatal("Nrm2 overflowed")
	}
	want := 1e300 * math.Sqrt2
	if math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("Nrm2 = %v, want %v", got, want)
	}
	// Underflow guard.
	got = Nrm2([]float64{1e-300, 1e-300})
	want = 1e-300 * math.Sqrt2
	if math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("Nrm2 tiny = %v, want %v", got, want)
	}
}

func TestNrm2MatchesSumSquares(t *testing.T) {
	f := func(xs []float64) bool {
		// Keep magnitudes moderate so the naive sum doesn't overflow.
		for i := range xs {
			xs[i] = math.Mod(xs[i], 1e6)
			if math.IsNaN(xs[i]) {
				xs[i] = 0
			}
		}
		s := 0.0
		for _, v := range xs {
			s += v * v
		}
		a, b := Nrm2(xs), math.Sqrt(s)
		if b == 0 {
			return a == 0
		}
		return math.Abs(a-b)/b < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func mustPanicB(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
