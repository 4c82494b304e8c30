package mat

import (
	"math"
	"testing"
)

func TestFrobeniusNorm(t *testing.T) {
	m := NewDenseData(2, 2, []float64{3, 0, 0, 4})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-15 {
		t.Fatalf("‖m‖_F = %v, want 5", got)
	}
	if NewDense(3, 3).FrobeniusNorm() != 0 {
		t.Fatal("zero matrix norm must be 0")
	}
}

func TestFrobeniusNormOverflowSafe(t *testing.T) {
	m := NewDenseData(1, 2, []float64{1e200, 1e200})
	got := m.FrobeniusNorm()
	want := 1e200 * math.Sqrt2
	if math.IsInf(got, 0) || math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("overflow-guarded norm = %v, want %v", got, want)
	}
}

func TestColNorm2(t *testing.T) {
	m := NewDenseData(3, 2, []float64{1, 2, 2, 0, 2, 0})
	if got := m.ColNorm2(0); math.Abs(got-3) > 1e-15 {
		t.Fatalf("col 0 norm = %v, want 3", got)
	}
	if got := m.ColNorm2(1); math.Abs(got-2) > 1e-15 {
		t.Fatalf("col 1 norm = %v, want 2", got)
	}
	// Subnormal-scale entries should still give a sensible norm.
	tiny := NewDenseData(2, 1, []float64{1e-300, 1e-300})
	want := 1e-300 * math.Sqrt2
	if got := tiny.ColNorm2(0); math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("tiny col norm = %v, want %v", got, want)
	}
}

func TestOneInfMaxNorms(t *testing.T) {
	m := NewDenseData(2, 3, []float64{1, -2, 3, -4, 5, -6})
	if got := m.OneNorm(); got != 9 {
		t.Fatalf("‖m‖₁ = %v, want 9", got)
	}
	if got := m.MaxAbs(); got != 6 {
		t.Fatalf("max|m| = %v, want 6", got)
	}
}

func TestNormsOnViews(t *testing.T) {
	big := NewDense(4, 4)
	for i := range big.Data {
		big.Data[i] = 100
	}
	v := big.Slice(1, 3, 1, 3)
	v.Zero()
	v.Set(0, 0, 3)
	v.Set(1, 1, 4)
	if got := v.FrobeniusNorm(); math.Abs(got-5) > 1e-15 {
		t.Fatalf("view ‖·‖_F = %v, want 5 (stride handling broken)", got)
	}
	if got := v.MaxAbs(); got != 4 {
		t.Fatalf("view max = %v, want 4", got)
	}
}
