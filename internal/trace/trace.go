// Package trace is the stage-level observability substrate behind the
// per-stage runtime breakdowns of the paper's evaluation (Figs. 4–7):
// a low-overhead, goroutine-safe span/counter API that the hot path —
// tsqrcp stage boundaries, the Ite-CholQR-CP iteration loop, the BLAS and
// LAPACK kernels, the distributed Allreduce, and the parallel worker
// pool — is instrumented with end to end.
//
// Tracing is off by default and compiles to near-no-ops when disabled:
// Region performs one atomic load and returns a zero Span, Span.End sees
// the zero value and returns immediately, and every counter helper is a
// single atomic load. Nothing on the disabled path allocates, so the
// allocation-free invariant of the Gram/TRSM iteration loop
// (TestGramLargeStillAllocFree) is preserved.
//
// When enabled, spans accumulate into a fixed table of per-stage atomic
// counters (total nanoseconds, call count, flops, bytes) rather than an
// event log, so the enabled overhead is two atomic adds per region and
// memory use is constant. Snapshot renders the table as a Report.
//
// The data model is two-level, matching how the paper attributes time:
//
//   - Stage* constants are the algorithm-level phases of Ite-CholQR-CP
//     (Gram construction, pivoted Cholesky, TRSM, column swaps, R
//     accumulation, the distributed Allreduce, and the end-to-end Total).
//     Stage spans do not overlap each other, so their times sum to ~Total.
//   - Kernel* constants are the BLAS/LAPACK kernels (gemm, syrk, trsm,
//     trmm, potrf, geqrf, geqp3, pcholcp). Kernel spans nest *inside*
//     stage spans, so they attribute the same wall time a second way and
//     must not be added to stage times.
package trace

import (
	"sync/atomic"
	"time"
)

// Stage identifies one row of the breakdown table: an algorithm-level
// phase (Stage*) or a BLAS/LAPACK kernel (Kernel*).
type Stage uint8

const (
	// StageGram is W := AᵀA outside the fused pass: Algorithm 4 line 3,
	// and the first Gram of each CholQR-family run.
	StageGram Stage = iota
	// StageCholCP is the Cholesky work on the Gram matrix: the fixed-block
	// factor/eliminate (lines 4–6), P-Chol-CP on the Schur complement
	// (line 7), and the plain Potrf of CholQR passes.
	StageCholCP
	// StageTrsm is a TRSM sweep outside the fused pass: the
	// reorthogonalization TRSM that produces Q, and CholQR's.
	StageTrsm
	// StageSwap is the column permutation of the coupling block
	// (lines 8–9) — the paper's "column swaps"; A's own permutation
	// rides in the fused pass.
	StageSwap
	// StageTrmm is the accumulation R := R′·R and permutation bookkeeping.
	StageTrmm
	// StageFused is the fused permute→TRSM→Gram streaming pass: one
	// row-block traversal that replaces a StageSwap + StageTrsm pair plus
	// the following StageGram on every Ite-CholQR-CP pivoting pass, and a
	// CholQR pass's TRSM plus the next pass's Gram wherever one pass
	// follows another: CholeskyQR2, each pass of shifted CholeskyQR3, and
	// CQRRPT's reorthogonalization.
	StageFused
	// StageSketch is the randomized embedding pass of the CQRRPT path:
	// SA := S·A for the sparse-sign sketch, plus the small pivoted QR of
	// the sketch.
	StageSketch
	// StagePrecond is CQRRPT's preconditioner application: the fused
	// permute→TRSM→Gram pass A := (A·P)·R_sk⁻¹ with W := AᵀA streamed out
	// in the same traversal.
	StagePrecond
	// StageAllreduce is the distributed Gram Allreduce (the only
	// collective on the Ite-CholQR-CP critical path).
	StageAllreduce
	// StageOOCRead is the disk time of the out-of-core path: the prefetch
	// goroutine's panel reads (and scratch writes) of the file-backed
	// working matrix. It deliberately does NOT appear in StageRows: the
	// reads overlap compute by design, so the time is not additive with
	// the other stages — compare it against StageTotal to judge how well
	// the prefetch pipeline hides the disk.
	StageOOCRead
	// StageTotal is the end-to-end factorization (tsqrcp entry points).
	StageTotal

	// Kernel-level rows; these nest inside stage rows.
	KernelGemm
	KernelSyrk
	KernelTrsm
	KernelTrmm
	KernelPotrf
	KernelGeqrf
	KernelGeqp3
	KernelPCholCP
	// KernelFusedTrsmGram is the fused permute→TRSM→Gram streaming kernel
	// (blas.PermTrsmGramFused). Its flop attribution is the sum of the
	// TRSM and SYRK it replaces (m·n² + m·n·(n+1)) and its byte
	// attribution is the two DRAM traversals of the single pass (16·m·n),
	// versus the five traversals of the unfused sequence.
	KernelFusedTrsmGram
	// KernelSketch is the randomized embedding kernel
	// (sketch.ApplySparse): flop attribution is 2·m·n·nnz for the
	// sparse-sign embedding; byte attribution is the single read
	// traversal of A (8·m·n).
	KernelSketch

	numStages
)

var stageNames = [numStages]string{
	"Gram", "CholCP", "TRSM", "Swap", "Trmm", "Fused", "Sketch", "Precond",
	"Allreduce", "OOCRead", "Total",
	"kernel/gemm", "kernel/syrk", "kernel/trsm", "kernel/trmm",
	"kernel/potrf", "kernel/geqrf", "kernel/geqp3", "kernel/pcholcp",
	"kernel/fused_trsm_gram", "kernel/sketch",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// IsKernel reports whether s is a kernel-level row (nested inside stage
// rows, so not additive with them).
func (s Stage) IsKernel() bool { return s >= KernelGemm && s < numStages }

// StageRows lists the non-overlapping algorithm-level stages in breakdown
// order; their times sum to approximately StageTotal.
func StageRows() []Stage {
	return []Stage{StageGram, StageCholCP, StageTrsm, StageSwap, StageTrmm,
		StageFused, StageSketch, StagePrecond, StageAllreduce}
}

// Counter identifies one named event counter.
type Counter uint8

const (
	// CtrIterations counts Ite-CholQR-CP pivoting iterations.
	CtrIterations Counter = iota
	// CtrPivotsFixed counts pivots fixed by P-Chol-CP.
	CtrPivotsFixed
	// CtrEpsExits counts P-Chol-CP exits through the tolerance-ε stopping
	// rule (Eq. 5) rather than by completing all columns.
	CtrEpsExits
	// CtrBreakdowns counts P-Chol-CP exits on a non-positive pivot.
	CtrBreakdowns
	// CtrWorkspaceGets counts pooled-workspace requests
	// (mat.GetWorkspace).
	CtrWorkspaceGets
	// CtrWorkspaceMisses counts requests the pool could not serve (a fresh
	// heap allocation). Steady state should show ~0 misses.
	CtrWorkspaceMisses
	// CtrWorkerDispatches counts chunks run by pool workers.
	CtrWorkerDispatches
	// CtrWorkerInline counts chunks run inline on a region's calling
	// goroutine (chunk 0 of every region, plus chunks no worker claimed).
	CtrWorkerInline
	// CtrSketchFallbacks counts CQRRPT runs that rejected the sketch
	// preconditioner (its condition-estimate guard or the preconditioned
	// Gram's Cholesky) and fell back to the iterated path.
	CtrSketchFallbacks
	// CtrOOCBytesRead counts payload bytes read from disk by the
	// out-of-core path (input file + scratch re-reads). One full Gram
	// sweep over an m×n file-backed matrix adds exactly 8·m·n, so
	// sweeps-per-factorization is directly auditable from this counter.
	CtrOOCBytesRead
	// CtrOOCPanelsRead counts row panels delivered by the prefetch
	// pipeline.
	CtrOOCPanelsRead
	// CtrOOCPrefetchStalls counts panel hand-offs where the compute side
	// arrived before the prefetched panel was ready (the pipeline failed
	// to hide that read).
	CtrOOCPrefetchStalls
	// CtrOOCPrefetchStallNs accumulates the nanoseconds the compute side
	// spent blocked waiting on those hand-offs; divided by wall time it
	// is the prefetch-stall fraction the bench gate bounds.
	CtrOOCPrefetchStallNs

	numCounters
)

var counterNames = [numCounters]string{
	"iterations", "pivots_fixed", "eps_exits", "breakdowns",
	"workspace_gets", "workspace_misses", "worker_dispatches", "worker_inline_chunks",
	"sketch_fallbacks",
	"ooc_bytes_read", "ooc_panels_read", "ooc_prefetch_stalls",
	"ooc_prefetch_stall_ns",
}

func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "unknown"
}

// MaxTrackedWorkers bounds the per-worker utilization table. Worker ids
// beyond the bound fold into the last slot.
const MaxTrackedWorkers = 256

// accum is one stage's accumulator, padded to its own cache line so
// concurrent workers ending spans on different stages do not false-share.
type accum struct {
	ns    atomic.Int64
	count atomic.Int64
	flops atomic.Int64
	bytes atomic.Int64
	_     [4]int64
}

// padInt64 is a cache-line-padded atomic counter.
type padInt64 struct {
	v atomic.Int64
	_ [7]int64
}

var (
	enabled     atomic.Bool
	windowStart atomic.Int64 // UnixNano at Enable/Reset; 0 when never enabled
	stages      [numStages]accum
	counters    [numCounters]padInt64
	workerBusy  [MaxTrackedWorkers]padInt64
)

// Enabled reports whether tracing is currently on. The parallel runtime
// and kernels gate their timing calls on this.
func Enabled() bool { return enabled.Load() }

// Enable turns tracing on and starts the utilization window. Counters are
// not cleared; call Reset for a fresh window.
func Enable() {
	windowStart.Store(time.Now().UnixNano())
	enabled.Store(true)
}

// Disable turns tracing off. Accumulated data stays readable via Snapshot.
func Disable() { enabled.Store(false) }

// Reset zeroes every accumulator and restarts the utilization window.
func Reset() {
	for i := range stages {
		stages[i].ns.Store(0)
		stages[i].count.Store(0)
		stages[i].flops.Store(0)
		stages[i].bytes.Store(0)
	}
	for i := range counters {
		counters[i].v.Store(0)
	}
	for i := range workerBusy {
		workerBusy[i].v.Store(0)
	}
	windowStart.Store(time.Now().UnixNano())
}

// Span is an open region. The zero Span (returned when tracing is
// disabled) is valid and End on it is a no-op.
type Span struct {
	start time.Time
	stage Stage
}

// Region opens a span on stage s. When tracing is disabled this is one
// atomic load and no allocation.
func Region(s Stage) Span {
	if !enabled.Load() {
		return Span{}
	}
	return Span{start: time.Now(), stage: s}
}

// End closes the span, accumulating its duration and call count into the
// stage table. Safe to call from any goroutine.
func (sp Span) End() {
	if sp.start.IsZero() {
		return
	}
	d := int64(time.Since(sp.start))
	a := &stages[sp.stage]
	a.ns.Add(d)
	a.count.Add(1)
}

// AddFlops attributes n floating-point operations to stage s.
func AddFlops(s Stage, n int64) {
	if enabled.Load() {
		stages[s].flops.Add(n)
	}
}

// AddBytes attributes n moved/communicated bytes to stage s.
func AddBytes(s Stage, n int64) {
	if enabled.Load() {
		stages[s].bytes.Add(n)
	}
}

// Inc increments counter c by one.
func Inc(c Counter) {
	if enabled.Load() {
		counters[c].v.Add(1)
	}
}

// Add increments counter c by n.
func Add(c Counter, n int64) {
	if enabled.Load() {
		counters[c].v.Add(n)
	}
}

// AddWorkerBusy attributes ns nanoseconds of busy time to pool worker id
// (0 is the calling goroutine of a parallel region; pool workers are 1+).
func AddWorkerBusy(id int, ns int64) {
	if !enabled.Load() {
		return
	}
	if id < 0 {
		id = 0
	}
	if id >= MaxTrackedWorkers {
		id = MaxTrackedWorkers - 1
	}
	workerBusy[id].v.Add(ns)
}
