// Package parallel provides the shared-memory parallel runtime used by the
// BLAS and LAPACK substrates: a persistent worker pool and one fan-out,
// Engine.For, a chunked parallel-for over an index range.
//
// The paper's reference implementation relies on vendor-threaded BLAS
// (Intel MKL, Fujitsu SSL2). This package plays that role here: kernels
// and reductions split their rows or outputs, and TSQR its tree nodes,
// into chunks that the caller shares with a fixed set of long-lived
// workers; a worker that frees up joins any region with chunks left, and
// small problems stay on the calling goroutine. Every region keeps to its
// engine's width and to the pool bound. Workers start lazily and are reused, so the
// steady-state Ite-CholQR-CP loop neither spawns goroutines nor allocates.
package parallel

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
