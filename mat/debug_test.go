//go:build debugchecks

package mat

import (
	"math"
	"testing"
)

func mustPanicNamed(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected debugchecks panic", name)
		}
	}()
	f()
}

func TestDebugCheckHeaderRejectsBadHeaders(t *testing.T) {
	mustPanicNamed(t, "negative rows", func() {
		m := &Dense{Rows: -1, Cols: 2, Stride: 2, Data: make([]float64, 4)}
		m.Slice(0, 0, 0, 0)
	})
	mustPanicNamed(t, "stride < cols", func() {
		m := &Dense{Rows: 2, Cols: 3, Stride: 2, Data: make([]float64, 6)}
		m.Slice(0, 2, 0, 2)
	})
	mustPanicNamed(t, "short backing slice", func() {
		m := &Dense{Rows: 3, Cols: 3, Stride: 3, Data: make([]float64, 7)}
		m.Slice(0, 3, 0, 3)
	})
	mustPanicNamed(t, "copy bad src", func() {
		dst := NewDense(2, 2)
		src := &Dense{Rows: 2, Cols: 2, Stride: 1, Data: make([]float64, 4)}
		dst.Copy(src)
	})
}

func TestDebugCheckHeaderAcceptsValidViews(t *testing.T) {
	m := NewDense(4, 4)
	v := m.Slice(1, 3, 1, 3)
	if v.Rows != 2 || v.Cols != 2 {
		t.Fatalf("Slice gave %d×%d, want 2×2", v.Rows, v.Cols)
	}
	dst := NewDense(4, 4)
	dst.Copy(m)
}

func TestFirstNonFinite(t *testing.T) {
	m := NewDense(3, 4)
	if _, _, found := FirstNonFinite(m); found {
		t.Fatal("all-zero matrix reported non-finite")
	}
	m.Set(1, 2, math.NaN())
	i, j, found := FirstNonFinite(m)
	if !found || i != 1 || j != 2 {
		t.Fatalf("FirstNonFinite = (%d,%d,%v), want (1,2,true)", i, j, found)
	}
	m.Set(0, 3, math.Inf(-1))
	i, j, found = FirstNonFinite(m)
	if !found || i != 0 || j != 3 {
		t.Fatalf("FirstNonFinite = (%d,%d,%v), want (0,3,true)", i, j, found)
	}
}

func TestCheckFiniteMessage(t *testing.T) {
	m := NewDense(2, 3)
	CheckFinite("core", "Gram matrix", m) // finite: no panic
	m.Set(1, 0, math.Inf(1))
	defer func() {
		want := "core: debugchecks: Gram matrix contains non-finite value at (1,0)"
		if r := recover(); r != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	CheckFinite("core", "Gram matrix", m)
}
