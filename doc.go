// Package tsqrcp computes QR factorizations of tall-skinny matrices, with
// and without column pivoting, using communication-avoiding Cholesky-QR-
// type algorithms.
//
// It is a from-scratch Go implementation of
//
//	T. Fukaya, Y. Nakatsukasa, Y. Yamamoto,
//	"A Cholesky QR type algorithm for computing tall-skinny QR
//	factorization with column pivoting", IEEE IPDPS 2024.
//
// The headline algorithm is Ite-CholQR-CP (QRCP): it obtains the same
// pivots and the same accuracy as Householder QR with column pivoting, but
// performs nearly all work in Level-3 BLAS kernels and needs only O(1)
// collective communications in distributed runs, so it is dramatically
// faster on tall-skinny matrices.
//
// Entry points:
//
//	QRCP          — pivoted QR by Ite-CholQR-CP (Algorithm 4), or by the
//	   randomized CQRRPT scheme via Options.Strategy
//	QRCPTruncated — rank-k truncated pivoted QR (low-rank approximation)
//	HouseholderQRCP — the conventional DGEQP3-style baseline
//	CholeskyQR / CholeskyQR2 / ShiftedCholeskyQR3 / HouseholderQR —
//	   unpivoted tall-skinny QR
//
// For very tall matrices, StrategyCQRRPT decides the pivots on a small
// sparse-sign sketch and spends a single preconditioned Cholesky QR pass
// on the full matrix — measurably faster than the iterated loop at the
// same accuracy gates, and bit-reproducible for a fixed Options.Seed at
// any worker count (DESIGN.md §11):
//
//	f, err := tsqrcp.QRCP(a, &tsqrcp.Options{
//	        Strategy: tsqrcp.StrategyCQRRPT,
//	        Seed:     42,
//	})
//
// # Engines, cancellation, and batch serving
//
// Every factorization runs on an Engine: an execution context carrying a
// parallel width budget and an optional context.Context. The
// package-level functions use the default engine (all cores, no
// cancellation); servers that embed the library create explicit engines
// so concurrent calls with different resource bounds never interfere:
//
//	e := tsqrcp.NewEngine(4)                   // ≤ 4-way parallelism
//	f, err := e.QRCP(a, nil)
//	f, err = e.WithContext(ctx).QRCP(a, nil)   // stops at a stage boundary
//	                                           // once ctx is cancelled
//
// Engine.QRCPBatch shards a slice of independent problems across the
// persistent worker pool with per-problem error reporting:
//
//	results, err := e.QRCPBatch(ctx, problems, nil)
//
// Worker bounds are per-engine (and per-call via Options.Workers), never
// process-global, so any number of engines can run concurrently.
//
// Migration note: the deprecated process-global width shim
// parallel.SetMaxWorkers/MaxWorkers has been removed. Code that called it
// should construct an engine of the desired width with NewEngine (or
// derive one with Engine.WithWorkers) and pass per-call overrides through
// Options.Workers.
//
// # Kernels
//
// The hot kernels (Gram/SYRK, GEMM, triangular solve, the fused
// permute→TRSM→Gram pass, and the sketch's row scatter) are pure Go with
// one implementation each. GEMM, SYRK and the right-side TRSM run on two
// register-tiled kernels, and every output element is one fused
// multiply-add chain over its summation index in ascending order; on
// amd64 with AVX2 and FMA the tiles and the row scatter run as assembly
// with the same bits (build with -tags purego to run the Go loops).
// Every kernel that sums over rows reduces
// through a fixed slot schedule that depends on the row count alone, so
// every factorization is bit-identical for any worker count.
//
// # Performance
//
// Tall-skinny factorizations are memory-bandwidth-bound, so the
// steady-state iterations of Ite-CholQR-CP (and CholeskyQR2's middle
// sweeps) run their column permute, triangular solve, and next Gram
// matrix as one fused streaming pass over the tall matrix, cutting DRAM
// traffic for those sweeps by 2.5× (DESIGN.md §10). The fused pass
// produces exactly the bits of the separate permute, solve and Gram
// kernels; cmd/bench-kernels times the two side by side.
//
// Supporting packages:
//
//	mat     — dense row-major matrices and permutations
//	dist    — distributed (1-D block-row) variants over an MPI-like
//	          communicator, plus the α-β performance model
//	testmat — the paper's synthetic test-matrix generator
//	metrics — accuracy metrics (orthogonality, residual, κ₂(R₁₁), ‖R₂₂‖₂)
//	bench   — harnesses that regenerate every figure and table of the
//	          paper's evaluation
package tsqrcp
