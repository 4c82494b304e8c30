package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// forChunks runs e.For(n, minChunk) and returns the chunks it handed its
// body, sorted by start, and whether chunk 0 ran on the calling goroutine.
func forChunks(e *Engine, n, minChunk int) (chunks [][2]int, zeroOnCaller bool) {
	var mu sync.Mutex
	caller := goid()
	zeroOnCaller = true
	e.For(n, minChunk, func(lo, hi int) {
		mu.Lock()
		defer mu.Unlock()
		chunks = append(chunks, [2]int{lo, hi})
		if lo == 0 && goid() != caller {
			zeroOnCaller = false
		}
	})
	sort.Slice(chunks, func(i, j int) bool { return chunks[i][0] < chunks[j][0] })
	return chunks, zeroOnCaller
}

// goid returns the calling goroutine's id, parsed from its stack header
// "goroutine N [running]:".
func goid() int {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, err := strconv.Atoi(strings.Fields(string(buf))[1])
	if err != nil {
		panic(err)
	}
	return id
}

// checkChunks reports how the chunks For handed its body break its
// partition contract: they tile [0, n) in order with no empty chunk;
// each is at least minChunk long unless n < minChunk, when one chunk
// covers everything; there are at most Workers() of them; and chunk 0
// ran on the caller.
func checkChunks(e *Engine, n, minChunk int) error {
	chunks, zeroOnCaller := forChunks(e, n, minChunk)
	if n <= 0 {
		if len(chunks) != 0 {
			return fmt.Errorf("n=%d: body ran on %v", n, chunks)
		}
		return nil
	}
	lo := 0
	for _, c := range chunks {
		if c[0] != lo || c[1] <= c[0] {
			return fmt.Errorf("n=%d minChunk=%d: gap, overlap or empty chunk at %v in %v", n, minChunk, c, chunks)
		}
		if n >= minChunk && c[1]-c[0] < minChunk {
			return fmt.Errorf("n=%d minChunk=%d: chunk %v shorter than minChunk", n, minChunk, c)
		}
		lo = c[1]
	}
	switch {
	case lo != n:
		return fmt.Errorf("n=%d: chunks %v cover [0,%d)", n, chunks, lo)
	case n < minChunk && len(chunks) != 1:
		return fmt.Errorf("n=%d < minChunk=%d: %d chunks, want 1", n, minChunk, len(chunks))
	case len(chunks) > e.Workers():
		return fmt.Errorf("n=%d: %d chunks on a width-%d engine", n, len(chunks), e.Workers())
	case !zeroOnCaller:
		return fmt.Errorf("n=%d: chunk 0 ran off the calling goroutine", n)
	}
	return nil
}

// withProcs raises GOMAXPROCS to at least procs for the test, so the
// pool can take the chunks of a wide engine instead of the caller.
func withProcs(t *testing.T, procs int) {
	old := runtime.GOMAXPROCS(max(procs, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestSplitCoversRange(t *testing.T) {
	withProcs(t, 8)
	cases := []struct {
		n, width, minChunk int
	}{
		{0, 4, 1}, {1, 4, 1}, {10, 3, 1}, {10, 3, 4}, {10, 20, 1},
		{100, 7, 16}, {1 << 20, 8, 256}, {5, 0, 0}, {7, 1, 1},
	}
	for _, c := range cases {
		if err := checkChunks(NewEngine(c.width), c.n, c.minChunk); err != nil {
			t.Errorf("width %d: %v", c.width, err)
		}
	}
}

// TestSplitRespectsMinChunk: a width-64 engine cuts 100 items with
// minChunk 10 into at most 10 chunks, none shorter than 10.
func TestSplitRespectsMinChunk(t *testing.T) {
	withProcs(t, 8)
	if err := checkChunks(NewEngine(64), 100, 10); err != nil {
		t.Fatal(err)
	}
}

func TestSplitProperty(t *testing.T) {
	withProcs(t, 8)
	f := func(n, width, minChunk uint8) bool {
		return checkChunks(NewEngine(int(width)), int(n), int(minChunk)) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSplitPropertyMinChunk checks the partition contract over wider n
// and every width up to 255, far past the pool.
func TestSplitPropertyMinChunk(t *testing.T) {
	withProcs(t, 8)
	f := func(n16 uint16, width8, minChunk8 uint8) bool {
		err := checkChunks(NewEngine(int(width8)), int(n16), int(minChunk8))
		if err != nil {
			t.Log(err)
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
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
