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
//	CholeskyQR / CholeskyQR2 / ShiftedCholeskyQR3 / HouseholderQR / TSQR —
//	   unpivoted tall-skinny QR
//	StrongRRQR    — strong rank-revealing QR at rank k (Gu–Eisenstat)
//
// Migration: LUCholeskyQR2 and Engine.LUCholeskyQR2 are removed; call
// ShiftedCholeskyQR3 (or Engine.ShiftedCholeskyQR3), which covers the same
// condition numbers at Householder-level orthogonality and ran 3–6×
// faster at every κ₂ measured (DESIGN.md §9).
//
// Migration: ErrStall is removed. QRCP returns the rank as a result:
// where an exactly rank-deficient input (a zero or repeated column) used
// to fail with ErrStall, it now returns a Factorization with f.Rank < n,
// Q m×Rank and R Rank×n, so check f.Rank < a.Cols instead. A zero
// matrix has Rank 0. Options.ZeroTol is removed too; the ε = 0 variant
// of the paper's Figs. 2–3 stays reachable through the figure drivers.
//
// Migration: BatchOptions is removed; QRCPBatch takes the *Options
// applied to every problem. Its Concurrency field is gone too: the batch
// always runs min(len(problems), engine width) shards, the old default.
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
// Worker bounds are per-engine (NewEngine, Engine.WithWorkers), never
// process-global, so any number of engines can run concurrently.
//
// # Kernels
//
// The hot kernels (Gram/SYRK, GEMM, triangular solve, the fused
// permute→TRSM→Gram pass, and the sketch's row scatter) have one
// implementation each. GEMM, SYRK and the right-side TRSM run on two
// register-tiled kernels, and every output element is one fused
// multiply-add chain over its summation index in ascending order; on
// amd64 the tiles run as AVX-512 or AVX2+FMA assembly, picked from CPUID
// at start-up, and the row scatter as AVX2+FMA assembly, all with the
// same bits (build with -tags purego to run the Go loops).
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
