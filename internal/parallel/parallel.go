// Package parallel provides the shared-memory parallel runtime used by the
// BLAS and LAPACK substrates: a persistent worker pool and one fan-out,
// Engine.For, a chunked parallel-for over an index range.
//
// The paper's reference implementation relies on vendor-threaded BLAS
// (Intel MKL, Fujitsu SSL2). This package plays that role here: Level-3
// kernels split their output or their summation rows into contiguous
// chunks and dispatch the chunks to a fixed set of long-lived workers,
// while small problems stay on the calling goroutine. Every region keeps
// to its engine's width and to the pool bound. Workers are started lazily
// on first use and reused across regions, so the steady-state
// Ite-CholQR-CP iteration loop neither spawns goroutines nor allocates.
package parallel

import (
	"time"

	"repro/internal/trace"
)

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
