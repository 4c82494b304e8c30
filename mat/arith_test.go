package mat

import "testing"

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
