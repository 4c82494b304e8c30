package parallel

import (
	"context"
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
			if r.Len() <= 0 {
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
		if r.Len() < 10 {
			t.Fatalf("range %v shorter than minChunk", r)
		}
	}
}

func TestSplitProperty(t *testing.T) {
	f := func(n, parts, minChunk uint8) bool {
		rs := Split(int(n), int(parts), int(minChunk))
		total := 0
		for _, r := range rs {
			if r.Len() <= 0 {
				return false
			}
			total += r.Len()
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
	For(n, 1, func(lo, hi int) {
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
	For(3, 100, func(lo, hi int) {
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
	For(0, 1, func(lo, hi int) { t.Fatal("body must not run for n=0") })
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
	var nilEngine *Engine
	if got := nilEngine.WithWorkers(3).Workers(); got != 3 {
		t.Fatalf("nil-engine WithWorkers width = %d, want 3", got)
	}
}

func TestDo(t *testing.T) {
	var sum int64
	Do(
		func() { atomic.AddInt64(&sum, 1) },
		func() { atomic.AddInt64(&sum, 10) },
		func() { atomic.AddInt64(&sum, 100) },
	)
	if sum != 111 {
		t.Fatalf("sum = %d, want 111", sum)
	}
	Do() // must not panic
	Do(func() { atomic.AddInt64(&sum, 1) })
	if sum != 112 {
		t.Fatalf("sum = %d, want 112", sum)
	}
}
