package mat

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestGetWorkspaceShapeAndZeroing(t *testing.T) {
	w := GetWorkspace(3, 5, true)
	if w.Rows != 3 || w.Cols != 5 || w.Stride != 5 || len(w.Data) != 15 {
		t.Fatalf("got %d×%d stride %d len %d", w.Rows, w.Cols, w.Stride, len(w.Data))
	}
	for i, v := range w.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %g, want 0", i, v)
		}
	}
	w.Set(1, 2, 42)
	PutWorkspace(w)

	// A cleared re-acquire of the same class must not see the 42.
	w2 := GetWorkspace(5, 3, true)
	for i, v := range w2.Data {
		if v != 0 {
			t.Fatalf("reused buffer leaked: Data[%d] = %g", i, v)
		}
	}
	PutWorkspace(w2)
}

func TestGetWorkspaceUnclearedIsFullyOwned(t *testing.T) {
	// Without clear the contents are unspecified, but the shape must be
	// exact and writes must stick.
	w := GetWorkspace(4, 4, false)
	for i := range w.Data {
		w.Data[i] = float64(i)
	}
	for i := range w.Data {
		if w.Data[i] != float64(i) {
			t.Fatalf("write lost at %d", i)
		}
	}
	PutWorkspace(w)
}

func TestGetWorkspaceZeroDim(t *testing.T) {
	for _, d := range [][2]int{{0, 7}, {7, 0}, {0, 0}} {
		w := GetWorkspace(d[0], d[1], true)
		if w.Rows != d[0] || w.Cols != d[1] || len(w.Data) != 0 {
			t.Fatalf("zero-dim workspace %v got %d×%d len %d", d, w.Rows, w.Cols, len(w.Data))
		}
		PutWorkspace(w) // must be a no-op, not a panic
	}
}

func TestPutWorkspaceRejectsViews(t *testing.T) {
	base := NewDense(6, 6)
	v := base.Slice(1, 4, 1, 4) // Stride != Cols: not compact
	PutWorkspace(v)             // must be ignored
	w := GetWorkspace(3, 3, false)
	if &w.Data[0] == &v.Data[0] {
		t.Fatal("pooled a non-compact view")
	}
	PutWorkspace(w)
}

// TestWorkspaceClassProperty: any requested size receives a buffer of at
// least that size, with the invariant preserved through a Put/Get cycle.
func TestWorkspaceClassProperty(t *testing.T) {
	f := func(r8, c8 uint8) bool {
		r, c := int(r8)%64+1, int(c8)%64+1
		w := GetWorkspace(r, c, false)
		ok := w.Rows == r && w.Cols == c && w.Stride == c && len(w.Data) == r*c && cap(w.Data) >= r*c
		PutWorkspace(w)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestWorkspacePoolConcurrent hammers the pool from many goroutines; run
// under -race this checks the pool hands each buffer to exactly one owner.
func TestWorkspacePoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r := (seed+i)%17 + 1
				c := (seed*i)%13 + 1
				w := GetWorkspace(r, c, true)
				fill := float64(seed*1000 + i)
				for k := range w.Data {
					w.Data[k] = fill
				}
				for k := range w.Data {
					if w.Data[k] != fill {
						t.Errorf("buffer shared across goroutines: got %g want %g", w.Data[k], fill)
						break
					}
				}
				PutWorkspace(w)
			}
		}(g)
	}
	wg.Wait()
}
