package parallel

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// The persistent worker pool: long-lived goroutines started lazily and
// shared by every region. A For region publishes its partition behind an
// atomic next-chunk cursor; each idle worker is handed one chunk, and a
// region with chunks left goes on the open list, which a worker that runs
// out of chunks scans before it parks. The caller claims chunks until
// none are left, so every wait is on a running chunk and nested regions
// (a For inside a For chunk, the TSQR recursion) cannot deadlock.
//
// Invariant: a worker is on the free list exactly when it is (or is about
// to be) blocked receiving on its private channel. Both lists change only
// under pool.mu, and a worker scans the open list and parks under one
// lock, so it cannot miss a region opened meanwhile.

// region is one For call: its body and partition, the claim cursor, and
// the count of chunks not yet run, which its caller waits on.
type region struct {
	body       func(lo, hi int)
	parts      int
	chunk, rem int // parts chunks of chunk or chunk+1 items, the first rem longer
	next       atomic.Int64
	unfinished sync.WaitGroup
}

// regionPool recycles region records: a steady-state region allocates nothing.
var regionPool = sync.Pool{New: func() any { return new(region) }}

// take claims the region's next chunk, or reports -1 when all are claimed.
func (r *region) take() int {
	if i := int(r.next.Add(1)) - 1; i < r.parts {
		return i
	}
	return -1
}

// drain runs chunk i and every chunk it can claim after it, charging
// busy time to utilization slot id (0 is the region's caller). It claims
// the next chunk before it marks the current one done, so it reads r
// only while it holds an unfinished chunk and the caller cannot recycle
// r under it.
func (r *region) drain(i, id int) {
	for i >= 0 {
		lo, hi := i*r.chunk+min(i, r.rem), (i+1)*r.chunk+min(i+1, r.rem)
		if trace.Enabled() {
			start := time.Now()
			r.body(lo, hi)
			trace.AddWorkerBusy(id, int64(time.Since(start)))
			ctr := trace.CtrWorkerDispatches
			if id == 0 {
				ctr = trace.CtrWorkerInline
			}
			trace.Inc(ctr)
		} else {
			r.body(lo, hi)
		}
		next := r.take()
		r.unfinished.Done()
		i = next
	}
}

// claim is one chunk of a region, reserved for the worker it is sent to.
type claim struct {
	r *region
	i int
}

// worker is a long-lived pool goroutine. Its channel has capacity 1 so
// handing it a chunk never blocks: the worker is idle by the free-list
// invariant and drains the slot immediately. id (1-based; 0 is the
// calling goroutine of a region) keys the per-worker utilization table.
type worker struct {
	ch chan claim
	id int
}

var pool struct {
	mu      sync.Mutex
	free    []*worker // idle workers, LIFO so the hottest worker runs next
	open    []*region // regions with chunks not yet claimed, oldest first
	spawned int       // live workers (running or idle)
	ids     int       // worker ids handed out; never decreases, so no two live workers share one
}

// poolLimit is the worker-pool size bound: GOMAXPROCS-1, because the
// caller of a parallel region always executes one chunk itself. Read per
// dispatch/rejoin so a runtime.GOMAXPROCS resize is honored eventually.
func poolLimit() int { return runtime.GOMAXPROCS(0) - 1 }

// dispatch hands one chunk of r to each idle worker it can get; if chunks
// remain unclaimed it puts r on the open list and reports true.
func dispatch(r *region) (opened bool) {
	limit := poolLimit()
	pool.mu.Lock()
	defer pool.mu.Unlock()
	for int(r.next.Load()) < r.parts {
		w := acquire(limit)
		if w == nil {
			pool.open = append(pool.open, r)
			return true
		}
		w.ch <- claim{r, r.take()}
	}
	return false
}

// closeRegion takes r off the open list once its caller has drained it.
func closeRegion(r *region) {
	pool.mu.Lock()
	pool.open = slices.DeleteFunc(pool.open, func(o *region) bool { return o == r })
	pool.mu.Unlock()
}

// acquire pops an idle worker, spawning a new one if the pool is below
// limit. It returns nil when every permitted worker is busy. The caller
// holds pool.mu.
func acquire(limit int) *worker {
	if n := len(pool.free); n > 0 {
		w := pool.free[n-1]
		pool.free[n-1] = nil
		pool.free = pool.free[:n-1]
		return w
	}
	if pool.spawned < limit {
		pool.spawned++
		pool.ids++
		w := &worker{ch: make(chan claim, 1), id: pool.ids}
		go w.loop()
		return w
	}
	return nil
}

// rejoin is called by a worker that has run out of chunks. It claims a
// chunk of the oldest open region that has one left; failing that it
// parks the worker on the free list, or retires it (closing its channel
// ends its loop) when a runtime.GOMAXPROCS shrink has left the pool
// above its bound.
func (w *worker) rejoin() claim {
	limit := poolLimit()
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if pool.spawned > limit {
		pool.spawned--
		close(w.ch)
		return claim{}
	}
	for _, r := range pool.open {
		if i := r.take(); i >= 0 {
			return claim{r, i}
		}
	}
	pool.free = append(pool.free, w)
	return claim{}
}

func (w *worker) loop() {
	for c := range w.ch {
		for c.r != nil {
			c.r.drain(c.i, w.id)
			c = w.rejoin()
		}
	}
}

// poolStats reports (live, idle) worker counts; test hook.
func poolStats() (spawned, idle int) {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return pool.spawned, len(pool.free)
}
