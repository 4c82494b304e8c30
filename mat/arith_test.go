package mat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddSubScale(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseData(2, 2, []float64{10, 20, 30, 40})
	a.Add(b)
	if a.At(1, 1) != 44 {
		t.Fatalf("Add: %v", a.Data)
	}
	a.Sub(b)
	if a.At(0, 0) != 1 || a.At(1, 1) != 4 {
		t.Fatalf("Sub: %v", a.Data)
	}
	mustPanic(t, func() { a.Add(NewDense(3, 2)) })
	mustPanic(t, func() { a.Sub(NewDense(2, 3)) })
}

func TestArithOnViews(t *testing.T) {
	big := NewDense(4, 4)
	v := big.Slice(1, 3, 1, 3)
	one := NewDense(2, 2)
	for i := range one.Data {
		one.Data[i] = 1
	}
	v.Add(one)
	if big.At(1, 1) != 1 || big.At(2, 2) != 1 {
		t.Fatal("Add through view failed")
	}
	if big.At(0, 0) != 0 || big.At(3, 3) != 0 {
		t.Fatal("Add leaked outside the view")
	}
}

func TestMul(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := Mul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range c.Data {
		if v != want[i] {
			t.Fatalf("Mul: %v, want %v", c.Data, want)
		}
	}
	mustPanic(t, func() { Mul(a, NewDense(2, 2)) })
}

func TestMulIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		m := 1 + rng.Intn(8)
		a := NewDense(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		return EqualApprox(Mul(a, Identity(n)), a, 0) &&
			EqualApprox(Mul(Identity(m), a), a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
