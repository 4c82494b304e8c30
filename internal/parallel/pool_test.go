package parallel

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// waitIdle waits until every live worker has parked, so a test starts
// from a pool no straggler of an earlier region is still passing through.
func waitIdle(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if spawned, idle := poolStats(); spawned == idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("pool workers never parked")
		}
	}
}

// TestFreedWorkerJoinsRegion: region A holds the pool's only worker when
// region B starts, so B finds no idle worker, and B's chunk 0 blocks until
// its chunk 1 has run. Only the worker A frees can run that chunk; a
// runtime that never hands a started region's chunk to a freed worker
// runs chunk 1 after chunk 0 on B's caller and so never finishes B.
func TestFreedWorkerJoinsRegion(t *testing.T) {
	old := runtime.GOMAXPROCS(2) // a pool of one worker
	defer runtime.GOMAXPROCS(old)
	// A wide region passes every idle worker through the pool, which
	// retires those above the one-worker bound.
	NewEngine(64).For(64, 1, func(lo, hi int) {})
	waitIdle(t)

	e := NewEngine(2)
	var aWorker, bWorker int
	held, release, aDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(aDone)
		e.For(2, 1, func(lo, _ int) {
			if lo == 1 {
				aWorker = goid()
				close(held)
				<-release
			}
		})
	}()
	<-held

	bStarted, ran, bDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(bDone)
		e.For(2, 1, func(lo, _ int) {
			if lo == 0 {
				close(bStarted)
				<-ran
				return
			}
			bWorker = goid()
			close(ran)
		})
	}()
	<-bStarted
	close(release)
	select {
	case <-bDone:
	case <-time.After(10 * time.Second):
		t.Fatal("region B's chunk 1 never ran: the worker region A freed did not join B")
	}
	<-aDone
	if bWorker != aWorker {
		t.Fatalf("B's chunk 1 ran on goroutine %d, want A's freed worker %d", bWorker, aWorker)
	}
}

// TestWorkerIDsStayUnique shrinks GOMAXPROCS until the lowest-numbered
// worker retires while higher-numbered ones live on, then regrows it: the
// worker spawned then must not reuse a live worker's id, or its busy time
// would land in that worker's utilization slot.
func TestWorkerIDsStayUnique(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	waitIdle(t)
	var held []*worker
	pool.mu.Lock()
	for w := acquire(poolLimit()); w != nil; w = acquire(poolLimit()) {
		held = append(held, w)
	}
	pool.mu.Unlock()
	slices.SortFunc(held, func(a, b *worker) int { return a.id - b.id })

	runtime.GOMAXPROCS(len(held)) // one worker above the bound
	held[0].rejoin()              // retires
	if spawned, _ := poolStats(); spawned != len(held)-1 {
		t.Fatalf("%d live workers after one retired, want %d", spawned, len(held)-1)
	}
	runtime.GOMAXPROCS(len(held) + 1)
	pool.mu.Lock()
	fresh := acquire(poolLimit())
	pool.mu.Unlock()
	if fresh == nil {
		t.Fatal("no worker spawned after GOMAXPROCS regrew")
	}
	held[0] = fresh
	for _, w := range held {
		if w != fresh && w.id == fresh.id {
			t.Errorf("spawned worker reuses live worker id %d", w.id)
		}
		w.rejoin() // parks
	}
}
