package parallel

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSplitCoversRange(t *testing.T) {
	cases := []struct {
		n, parts, minChunk int
	}{
		{0, 4, 1}, {1, 4, 1}, {10, 3, 1}, {10, 3, 4}, {10, 20, 1},
		{100, 7, 16}, {1 << 20, 8, 256}, {5, 0, 0}, {7, 1, 1},
	}
	for _, c := range cases {
		rs := Split(c.n, c.parts, c.minChunk)
		if c.n == 0 {
			if rs != nil {
				t.Errorf("Split(%d,%d,%d) = %v, want nil", c.n, c.parts, c.minChunk, rs)
			}
			continue
		}
		lo := 0
		for _, r := range rs {
			if r.Lo != lo {
				t.Fatalf("Split(%d,%d,%d): gap or overlap at %v", c.n, c.parts, c.minChunk, r)
			}
			if r.Hi <= r.Lo {
				t.Fatalf("Split(%d,%d,%d): empty range %v", c.n, c.parts, c.minChunk, r)
			}
			lo = r.Hi
		}
		if lo != c.n {
			t.Fatalf("Split(%d,%d,%d): covers [0,%d), want [0,%d)", c.n, c.parts, c.minChunk, lo, c.n)
		}
	}
}

func TestSplitRespectsMinChunk(t *testing.T) {
	rs := Split(100, 64, 10)
	if len(rs) > 10 {
		t.Fatalf("got %d parts, want <= 10 for minChunk 10", len(rs))
	}
	for _, r := range rs[:len(rs)-1] {
		if r.Hi-r.Lo < 10 {
			t.Fatalf("range %v shorter than minChunk", r)
		}
	}
}

func TestSplitProperty(t *testing.T) {
	f := func(n, parts, minChunk uint8) bool {
		rs := Split(int(n), int(parts), int(minChunk))
		total := 0
		for _, r := range rs {
			if r.Hi <= r.Lo {
				return false
			}
			total += r.Hi - r.Lo
		}
		return total == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestForVisitsEveryIndexOnce(t *testing.T) {
	const n = 10007
	var hits [n]int32
	Default.For(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestForSmallRunsInline(t *testing.T) {
	calls := 0
	Default.For(3, 100, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 3 {
			t.Fatalf("got [%d,%d), want [0,3)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("got %d calls, want 1", calls)
	}
}

func TestForZero(t *testing.T) {
	Default.For(0, 1, func(lo, hi int) { t.Fatal("body must not run for n=0") })
}

func TestEngineWidthBound(t *testing.T) {
	e := NewEngine(2)
	if e.Workers() != 2 {
		t.Fatalf("Workers() = %d, want 2", e.Workers())
	}
	var width int32
	e.For(1000, 1, func(lo, hi int) {
		atomic.AddInt32(&width, 1)
	})
	if width > 2 {
		t.Fatalf("parallel width %d exceeds bound 2", width)
	}
	if NewEngine(0).Workers() < 1 {
		t.Fatal("zero-width engine should resolve to a positive bound")
	}
}

func TestEngineDerivationsKeepWidthAndContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := NewEngine(2).WithContext(ctx)
	if got := e.Workers(); got != 2 {
		t.Fatalf("WithContext width = %d, want 2", got)
	}
	w := e.WithWorkers(3)
	if got := w.Workers(); got != 3 {
		t.Fatalf("WithWorkers width = %d, want 3", got)
	}
	if w.Err() == nil {
		t.Fatal("WithWorkers dropped the context")
	}
}

// A nil engine is a bug below the facade: every method that reads the
// engine panics instead of standing in for Default.
func TestNilEnginePanics(t *testing.T) {
	var nilEngine *Engine
	for name, use := range map[string]func(){
		"For":         func() { nilEngine.For(10, 1, func(lo, hi int) {}) },
		"Workers":     func() { nilEngine.Workers() },
		"WithContext": func() { nilEngine.WithContext(context.Background()) },
		"WithWorkers": func() { nilEngine.WithWorkers(3) },
		"Err":         func() { _ = nilEngine.Err() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("nil engine %s did not panic", name)
				}
			}()
			use()
		}()
	}
}

// "All cores" has one meaning: NewEngine(0), WithWorkers(0) and Default
// all track GOMAXPROCS rather than freezing it at construction.
func TestAllCoresTracksGOMAXPROCS(t *testing.T) {
	e, w := NewEngine(0), NewEngine(2).WithWorkers(-1)
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{old + 1, 1} {
		runtime.GOMAXPROCS(procs)
		for name, eng := range map[string]*Engine{"NewEngine(0)": e, "WithWorkers(-1)": w, "Default": Default} {
			if got := eng.Workers(); got != procs {
				t.Errorf("GOMAXPROCS=%d: %s.Workers() = %d", procs, name, got)
			}
		}
	}
}

func TestDo(t *testing.T) {
	var sum int64
	Default.Do(
		func() { atomic.AddInt64(&sum, 1) },
		func() { atomic.AddInt64(&sum, 10) },
		func() { atomic.AddInt64(&sum, 100) },
	)
	if sum != 111 {
		t.Fatalf("sum = %d, want 111", sum)
	}
	Default.Do() // must not panic
	Default.Do(func() { atomic.AddInt64(&sum, 1) })
	if sum != 112 {
		t.Fatalf("sum = %d, want 112", sum)
	}
}
