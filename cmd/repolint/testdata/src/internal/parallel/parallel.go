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

// Range is a half-open index range, as handed to Do-task builders.
type Range struct{ Lo, Hi int }

// SplitRanges partitions n items into parts contiguous ranges.
func SplitRanges(n, parts int) []Range {
	_ = parts
	return []Range{{0, n}}
}

// For partitions n items and runs body over each part.
func (e *Engine) For(n, minGrain int, body func(lo, hi int)) {
	_ = minGrain
	body(0, n)
}

// Do runs the tasks, possibly concurrently.
func (e *Engine) Do(tasks ...func()) {
	for _, t := range tasks {
		t()
	}
}

// Split takes its width as an explicit argument.
func Split(n, parts int) []int {
	_ = parts
	return []int{0, n}
}
