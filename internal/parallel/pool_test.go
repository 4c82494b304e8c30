package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
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

// TestNestedParallelismNoDeadlock nests For three deep on an engine far
// narrower than the nesting demands; the inline-fallback rule must keep
// everything progressing.
func TestNestedParallelismNoDeadlock(t *testing.T) {
	e := NewEngine(3)
	var total atomic.Int64
	e.For(8, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e.For(2, 1, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					e.For(100, 1, func(lo, hi int) { total.Add(int64(hi - lo)) })
				}
			})
		}
	})
	if total.Load() != 8*2*100 {
		t.Fatalf("total = %d, want %d", total.Load(), 8*2*100)
	}
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
