// Package parallel stubs the execution-engine API of the real
// repro/internal/parallel package: the Engine type the enginethread check
// wants threaded.
package parallel

// Engine bounds the parallel width of the calls it is passed to.
type Engine struct{ workers int }

// NewEngine returns an engine running at most workers wide.
func NewEngine(workers int) *Engine { return &Engine{workers: workers} }

// Err mimics cooperative cancellation: nil until the engine context is
// cancelled (the ctxcancel check looks for per-iteration calls to it).
func (e *Engine) Err() error { return nil }

// Workers reports the engine width.
func (e *Engine) Workers() int { return e.workers }

// For partitions n items and runs body over each part.
func (e *Engine) For(n, minGrain int, body func(lo, hi int)) {
	_ = minGrain
	body(0, n)
}
