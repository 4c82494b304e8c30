package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// TestConcurrentForRegions launches many For regions from independent
// goroutines at once, each on its own narrow engine; every region must
// still visit each of its indices exactly once even while competing for
// the shared worker pool.
func TestConcurrentForRegions(t *testing.T) {
	e := NewEngine(4)
	const regions = 16
	const n = 4097
	var wg sync.WaitGroup
	for g := 0; g < regions; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sum atomic.Int64
			e.For(n, 1, func(lo, hi int) {
				local := int64(0)
				for i := lo; i < hi; i++ {
					local += int64(i)
				}
				sum.Add(local)
			})
			if want := int64(n) * (n - 1) / 2; sum.Load() != want {
				t.Errorf("region sum = %d, want %d", sum.Load(), want)
			}
		}()
	}
	wg.Wait()
}

// TestMixedWidthEnginesMidFlight runs For regions on engines of churning
// widths concurrently. Regions must stay correct regardless of which
// width any competing region uses, because width travels with the engine
// instead of living in global state.
func TestMixedWidthEnginesMidFlight(t *testing.T) {
	sizes := []int{1, 8, 2, 6, 3}
	engines := make([]*Engine, len(sizes))
	for i, w := range sizes {
		engines[i] = NewEngine(w)
	}
	const n = 1 << 12
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				e := engines[(g+iter)%len(engines)]
				var sum atomic.Int64
				e.For(n, 1, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						sum.Add(1)
					}
				})
				if sum.Load() != n {
					t.Errorf("engine width %d iteration %d: visited %d indices, want %d",
						e.Workers(), iter, sum.Load(), n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// The pool never exceeds its fixed bound no matter which engine widths
	// competed for it.
	spawned, idle := poolStats()
	if limit := runtime.GOMAXPROCS(0) - 1; spawned > limit {
		t.Fatalf("pool spawned %d workers, limit %d", spawned, limit)
	} else if idle > spawned {
		t.Fatalf("idle %d > spawned %d", idle, spawned)
	}
}

// TestNestedParallelismNoDeadlock exercises For inside Do inside For with
// an engine far narrower than the nesting demands; the inline-fallback
// rule must keep everything progressing.
func TestNestedParallelismNoDeadlock(t *testing.T) {
	e := NewEngine(3)
	var total atomic.Int64
	e.For(8, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e.Do(
				func() {
					e.For(100, 1, func(lo, hi int) { total.Add(int64(hi - lo)) })
				},
				func() {
					e.For(100, 1, func(lo, hi int) { total.Add(int64(hi - lo)) })
				},
			)
		}
	})
	if total.Load() != 8*2*100 {
		t.Fatalf("total = %d, want %d", total.Load(), 8*2*100)
	}
}

// TestDoTasksTrulyConcurrent verifies Do gives every task its own flow of
// control even when the pool is exhausted: tasks that must rendezvous with
// each other complete instead of deadlocking.
func TestDoTasksTrulyConcurrent(t *testing.T) {
	e := NewEngine(2) // far fewer slots than tasks, but 4 tasks must all run
	const tasks = 4
	var barrier sync.WaitGroup
	barrier.Add(tasks)
	fns := make([]func(), tasks)
	for i := range fns {
		fns[i] = func() {
			barrier.Done()
			barrier.Wait() // blocks until every task has started
		}
	}
	done := make(chan struct{})
	go func() {
		e.Do(fns...)
		close(done)
	}()
	<-done
}

// TestWorkerReuse checks that back-to-back regions are served by persistent
// workers rather than fresh spawns: the live-worker count stays bounded by
// the pool limit across many regions.
func TestWorkerReuse(t *testing.T) {
	for i := 0; i < 100; i++ {
		Default.For(1<<12, 1, func(lo, hi int) {})
	}
	spawned, idle := poolStats()
	if limit := runtime.GOMAXPROCS(0) - 1; spawned > limit {
		t.Fatalf("spawned %d workers, want ≤ %d (GOMAXPROCS-1)", spawned, limit)
	}
	if idle > spawned {
		t.Fatalf("idle %d > spawned %d", idle, spawned)
	}
}

// TestSplitPropertyMinChunk: every range is at least minChunk wide unless
// the whole interval is shorter than minChunk (then a single range covers
// it), ranges tile [0, n) in order, and the part count respects the cap.
func TestSplitPropertyMinChunk(t *testing.T) {
	f := func(n16 uint16, parts8, minChunk8 uint8) bool {
		n, parts, minChunk := int(n16), int(parts8), int(minChunk8)
		rs := Split(n, parts, minChunk)
		if n == 0 {
			return rs == nil
		}
		if minChunk < 1 {
			minChunk = 1
		}
		if n < minChunk {
			return len(rs) == 1 && rs[0] == Range{0, n}
		}
		lo := 0
		for _, r := range rs {
			if r.Lo != lo || r.Hi <= r.Lo {
				return false
			}
			if r.Hi-r.Lo < minChunk {
				return false
			}
			lo = r.Hi
		}
		if lo != n {
			return false
		}
		if parts >= 1 && len(rs) > parts {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
