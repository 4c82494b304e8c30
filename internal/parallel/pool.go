package parallel

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/trace"
)

// The persistent worker pool. Parallel regions used to spawn fresh
// goroutines per call; with one region per Level-3 kernel invocation and
// several kernel invocations per Ite-CholQR-CP iteration, goroutine startup
// and the associated allocations showed up in the iteration loop. Workers
// are now long-lived goroutines started lazily on first use and reused
// across regions.
//
// Invariant: a worker is on the free list exactly when it is (or is about
// to be) blocked receiving on its private channel. acquire therefore only
// ever hands out workers that are guaranteed to pick up the next task, and
// dispatchers that find the pool exhausted run the chunk inline on the
// calling goroutine instead of queueing. Because nothing ever waits on an
// unclaimed task, nested parallel regions (a For inside a For chunk, the
// TSQR recursion) cannot deadlock: every wait is on a task already running
// on a dedicated worker or on the caller itself.
type task struct {
	body   func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

// worker is a long-lived pool goroutine. Its channel has capacity 1 so
// dispatch never blocks the sender: the worker is idle by the free-list
// invariant and drains the slot immediately. id (1-based; 0 is the
// calling goroutine of a region) keys the per-worker utilization table.
type worker struct {
	ch chan task
	id int
}

var pool struct {
	mu      sync.Mutex
	free    []*worker // idle workers, LIFO so the hottest worker runs next
	spawned int       // live workers (running or idle)
}

// poolLimit is the worker-pool size bound: GOMAXPROCS-1, because the
// caller of a parallel region always executes one chunk itself. Read per
// acquire/release so a runtime.GOMAXPROCS resize is honored eventually.
func poolLimit() int { return runtime.GOMAXPROCS(0) - 1 }

// acquire pops an idle worker, spawning a new one if the pool is below
// poolLimit. It returns nil when every permitted worker is busy; the
// caller must then run the chunk inline.
func acquire() *worker {
	limit := poolLimit()
	pool.mu.Lock()
	if n := len(pool.free); n > 0 {
		w := pool.free[n-1]
		pool.free[n-1] = nil
		pool.free = pool.free[:n-1]
		pool.mu.Unlock()
		return w
	}
	if pool.spawned < limit {
		pool.spawned++
		id := pool.spawned
		pool.mu.Unlock()
		w := &worker{ch: make(chan task, 1), id: id}
		go w.loop()
		return w
	}
	pool.mu.Unlock()
	return nil
}

// release returns a worker to the free list, or retires it (reports false)
// when a runtime.GOMAXPROCS resize has shrunk the pool below the
// live-worker count.
func (w *worker) release() bool {
	limit := poolLimit()
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if pool.spawned > limit {
		pool.spawned--
		return false
	}
	pool.free = append(pool.free, w)
	return true
}

func (w *worker) loop() {
	for t := range w.ch {
		if trace.Enabled() {
			start := time.Now()
			t.body(t.lo, t.hi)
			trace.AddWorkerBusy(w.id, int64(time.Since(start)))
		} else {
			t.body(t.lo, t.hi)
		}
		t.wg.Done()
		if !w.release() {
			return
		}
	}
}

// poolStats reports (live, idle) worker counts; test hook.
func poolStats() (spawned, idle int) {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return pool.spawned, len(pool.free)
}

// wgPool recycles the per-region WaitGroups so a steady-state parallel
// region performs no heap allocation at all.
var wgPool = sync.Pool{New: func() any { return new(sync.WaitGroup) }}
