package parallel

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/trace"
)

// Engine is an explicit execution context for the parallel runtime: a
// per-call parallel width bound and an optional context.Context for
// cooperative cancellation. The width travels with the call instead of
// living in mutable global state, so two factorizations running on
// engines with different widths partition their work independently and
// race-free.
//
// All engines share the persistent worker pool and the pooled
// workspaces; an engine only bounds how many ways a region fans out, so
// creating one is free and engines are safe for concurrent use.
//
// Every kernel takes its engine explicitly; a call that names no width
// passes Default. A nil engine is a bug and panics on first use.
type Engine struct {
	workers int // 0 tracks GOMAXPROCS
	ctx     context.Context
}

// Default is the engine of calls that name no width: all cores, no cancellation.
var Default = &Engine{}

// NewEngine returns an engine bounded to the given parallel width.
// workers < 1 selects all available cores, tracking GOMAXPROCS.
func NewEngine(workers int) *Engine {
	return &Engine{workers: max(workers, 0)}
}

// WithContext returns a derived engine with the same width whose Err
// method reports the context's cancellation or deadline state.
// Algorithms check Err at stage boundaries, so cancellation is
// cooperative: in-flight kernels finish, the next stage does not start.
func (e *Engine) WithContext(ctx context.Context) *Engine {
	return &Engine{workers: e.workers, ctx: ctx}
}

// WithWorkers returns a derived engine with the same context and the new
// width bound. n < 1 selects all available cores, tracking GOMAXPROCS.
func (e *Engine) WithWorkers(n int) *Engine {
	return &Engine{workers: max(n, 0), ctx: e.ctx}
}

// Workers reports the engine's parallel width bound. An engine built
// for all available cores reports the current GOMAXPROCS.
func (e *Engine) Workers() int {
	if e.workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.workers
}

// Err reports the engine's cancellation state: nil while live, the
// context's error once cancelled or past its deadline. Engines without a
// context never report an error.
func (e *Engine) Err() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// For runs body(lo, hi) over a partition of [0, n) using up to Workers()
// ways of parallelism (pool workers plus the calling goroutine), and is
// the runtime's one fan-out. The partition is at most Workers()
// contiguous near-equal chunks, each at least minChunk wide: if
// n/minChunk < 2 the body runs once, inline on the calling goroutine,
// and chunk 0 always runs there. The body must be safe to invoke
// concurrently on disjoint ranges; chunks must not wait on one another,
// since any of them may run after another on the caller.
//
// Chunks the pool cannot absorb (all workers busy, e.g. under nested
// parallelism or a competing engine) run inline on the caller, so For
// never blocks on an unclaimed task and nesting cannot deadlock.
func (e *Engine) For(n, minChunk int, body func(lo, hi int)) {
	w := e.Workers()
	if n <= 0 {
		return
	}
	if w == 1 {
		body(0, n)
		return
	}
	parts := clampParts(n, w, minChunk)
	if parts <= 1 {
		body(0, n)
		return
	}
	chunk := n / parts
	rem := n % parts
	// Chunk 0 (always) and every chunk the pool cannot take (rarely) run
	// on the calling goroutine; [inlineLo, n) tracks the latter tail.
	wg := wgPool.Get().(*sync.WaitGroup)
	inlineLo := n
	lo := chunk
	if rem > 0 {
		lo++
	}
	hi0 := lo
	for i := 1; i < parts; i++ {
		hi := lo + chunk
		if i < rem {
			hi++
		}
		wk := acquire()
		if wk == nil {
			inlineLo = lo
			break
		}
		wg.Add(1)
		trace.Inc(trace.CtrWorkerDispatches)
		wk.ch <- task{body: body, lo: lo, hi: hi, wg: wg}
		lo = hi
	}
	runInline(body, 0, hi0)
	if inlineLo < n {
		runInline(body, inlineLo, n)
	}
	wg.Wait()
	wgPool.Put(wg)
}
