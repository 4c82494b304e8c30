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
// All engines share the persistent worker pool and the pooled workspaces
// (mat.GetWorkspace/GetFloats); an engine only decides how many ways a
// single region fans out, so creating one is free — it is three words —
// and engines are safe for concurrent use by multiple goroutines.
//
// The zero value and the nil pointer are both valid and mean "default
// engine": the width is GOMAXPROCS and there is no cancellation. Every
// kernel in internal/blas, internal/lapack, internal/cholcp and
// internal/core accepts a nil engine.
type Engine struct {
	workers int
	ctx     context.Context
}

// NewEngine returns an engine bounded to the given parallel width.
// workers < 1 selects all available cores (GOMAXPROCS).
func NewEngine(workers int) *Engine {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers}
}

// WithContext returns a derived engine with the same width whose Err
// method reports the context's cancellation or deadline state.
// Algorithms check Err at stage boundaries, so cancellation is
// cooperative: in-flight kernels finish, the next stage does not start.
func (e *Engine) WithContext(ctx context.Context) *Engine {
	ne := &Engine{ctx: ctx}
	if e != nil {
		ne.workers = e.workers
	}
	return ne
}

// WithWorkers returns a derived engine with the same context and the new
// width bound. n < 1 selects all available cores.
func (e *Engine) WithWorkers(n int) *Engine {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	ne := &Engine{workers: n}
	if e != nil {
		ne.ctx = e.ctx
	}
	return ne
}

// Workers reports the engine's parallel width bound. A nil or zero-width
// engine uses all available cores (GOMAXPROCS).
func (e *Engine) Workers() int {
	if e == nil || e.workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.workers
}

// Context returns the engine's context, or context.Background for an
// engine without one.
func (e *Engine) Context() context.Context {
	if e == nil || e.ctx == nil {
		return context.Background()
	}
	return e.ctx
}

// Err reports the engine's cancellation state: nil while live, the
// context's error once cancelled or past its deadline. Engines without a
// context never report an error.
func (e *Engine) Err() error {
	if e == nil || e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// For runs body(lo, hi) over a partition of [0, n) using up to Workers()
// ways of parallelism (pool workers plus the calling goroutine). minChunk
// sets the smallest useful grain: if n/minChunk < 2 the body runs inline
// on the calling goroutine. The body must be safe to invoke concurrently
// on disjoint ranges.
//
// Chunks the pool cannot absorb (all workers busy, e.g. under nested
// parallelism or a competing engine) run inline on the caller, so For
// never blocks on an unclaimed task and nesting cannot deadlock.
func (e *Engine) For(n, minChunk int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := e.Workers()
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

// Do runs each task concurrently and waits for all of them. Every task is
// guaranteed its own flow of control (pool worker, fresh goroutine beyond
// the pool limit, or the calling goroutine for the first task), so tasks
// may synchronize with one another — the distributed substrate runs one
// task per rank and the ranks exchange messages and barrier. Callers that
// want the engine width respected pass at most Workers() tasks (Split
// with parts = Workers() guarantees this).
func (e *Engine) Do(tasks ...func()) {
	switch len(tasks) {
	case 0:
		return
	case 1:
		tasks[0]()
		return
	}
	wg := wgPool.Get().(*sync.WaitGroup)
	wg.Add(len(tasks) - 1)
	for _, t := range tasks[1:] {
		if wk := acquire(); wk != nil {
			trace.Inc(trace.CtrWorkerDispatches)
			wk.ch <- task{fn: t, wg: wg}
			continue
		}
		go func(f func()) {
			defer wg.Done()
			f()
		}(t)
	}
	runInlineTask(tasks[0])
	wg.Wait()
	wgPool.Put(wg)
}
