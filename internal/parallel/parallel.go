// Package parallel provides the shared-memory parallel runtime used by the
// BLAS and LAPACK substrates: a persistent worker pool, a chunked
// parallel-for over index ranges, and helpers for partitioning work.
//
// The paper's reference implementation relies on vendor-threaded BLAS
// (Intel MKL, Fujitsu SSL2). This package plays that role here: Level-3
// kernels split their output into row panels and dispatch the panels to a
// fixed set of long-lived workers, while Level-2 and Level-1 kernels stay
// sequential unless the problem is large enough to amortize dispatch.
// Workers are started lazily on first use and reused across regions, so
// the steady-state Ite-CholQR-CP iteration loop neither spawns goroutines
// nor allocates.
package parallel

import (
	"time"

	"repro/internal/trace"
)

// Range describes a half-open index interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// Split partitions [0, n) into at most parts near-equal contiguous ranges,
// each at least minChunk wide (except possibly when n < minChunk, in which
// case a single range covers everything). It never returns empty ranges.
func Split(n, parts, minChunk int) []Range {
	if n <= 0 {
		return nil
	}
	parts = clampParts(n, parts, minChunk)
	out := make([]Range, 0, parts)
	chunk := n / parts
	rem := n % parts
	lo := 0
	for i := 0; i < parts; i++ {
		hi := lo + chunk
		if i < rem {
			hi++
		}
		out = append(out, Range{Lo: lo, Hi: hi})
		lo = hi
	}
	return out
}

// clampParts bounds the number of chunks so each is at least minChunk wide.
func clampParts(n, parts, minChunk int) int {
	if parts < 1 {
		parts = 1
	}
	if minChunk < 1 {
		minChunk = 1
	}
	if maxParts := n / minChunk; parts > maxParts {
		parts = maxParts
	}
	if parts < 1 {
		parts = 1
	}
	return parts
}

// runInline executes one chunk on the calling goroutine, attributing its
// busy time to utilization slot 0 when tracing is enabled.
func runInline(body func(lo, hi int), lo, hi int) {
	if trace.Enabled() {
		start := time.Now()
		body(lo, hi)
		trace.AddWorkerBusy(0, int64(time.Since(start)))
		trace.Inc(trace.CtrWorkerInline)
		return
	}
	body(lo, hi)
}

// runInlineTask is runInline for a no-argument task (the Do path).
func runInlineTask(fn func()) {
	if trace.Enabled() {
		start := time.Now()
		fn()
		trace.AddWorkerBusy(0, int64(time.Since(start)))
		trace.Inc(trace.CtrWorkerInline)
		return
	}
	fn()
}
