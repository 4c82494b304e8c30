package blas

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/mat"
)

// This file is the fixed-shape face of the fused kernel family: a Gram
// computation whose floating-point summation order is a function of the
// row count alone (GramFixed), and panel-granular entry points
// (GramPanelAcc, FusedPanelPivot, ReduceGramSlots) that let an
// out-of-core driver replay exactly the same order one resident panel at
// a time. The schedule helpers (FusedSlots, FusedSlotBounds,
// FusedBlockRows) export the slot/micro-block grid so callers outside
// this package can cut panels only at positions the in-core kernels
// would have visited anyway — the whole bit-identity story of
// internal/ooc rests on these boundaries (DESIGN.md §14).

// FusedBlockRows is the micro-block height of the fused streaming
// kernels. Out-of-core panel boundaries must fall on this grid (relative
// to their slot's lower bound) for the per-panel kernels to reproduce the
// in-core summation order bit for bit.
const FusedBlockRows = fusedBlockRows

// FusedSlots reports the fixed reduction fan-out the fused kernels use
// for an m-row pass — a function of m alone, never of the engine width.
func FusedSlots(m int) int { return fusedSlots(m) }

// FusedSlotBounds reports the half-open row range of slot si of slots
// over m rows, matching the partition the fused kernels use internally.
func FusedSlotBounds(m, slots, si int) (lo, hi int) {
	return fusedSlotBounds(m, slots, si)
}

// GramFixed computes the full symmetric Gram matrix W = AᵀA through the
// fixed-shape slot reduction of the fused kernel family: rows are
// partitioned into FusedSlots(m) slots, each slot accumulates with the
// register-tiled fused SYRK in ascending quad order, and the per-slot
// partials reduce into W in ascending slot index order. Every engine
// width therefore produces bit-identical W — unlike Gram, whose
// summation shape follows the width — making this the Gram of choice for
// paths that promise width determinism (the iterated pivoting loop, and
// the out-of-core driver that replays it panel by panel).
//
// Engines carrying a non-native compute backend delegate to Gram so the
// backend's accumulation semantics (e.g. mixed32's float32 Gram) are
// preserved; the fixed-shape guarantee holds on the native backend.
func GramFixed(e *parallel.Engine, w *mat.Dense, a *mat.Dense) {
	n := a.Cols
	if w.Rows != n || w.Cols != n {
		panic(fmt.Sprintf("blas: GramFixed W %d×%d, want %d×%d", w.Rows, w.Cols, n, n))
	}
	if backendFor(e) != nativeHandle {
		Gram(e, w, a)
		return
	}
	w.Zero()
	m := a.Rows
	if m == 0 || n == 0 {
		return
	}
	sp := trace.BackendRegion(trace.KernelSyrk, nativeHandle.traceID)
	defer sp.End()
	trace.AddFlopsBackend(trace.KernelSyrk, nativeHandle.traceID, int64(m)*int64(n)*int64(n+1))
	slots := fusedSlots(m)
	wk := e.Workers()
	if wk == 1 || slots == 1 || mulFlops(m, n, n) < gemmParallelFlops {
		// Sequential path: one reusable accumulator, reduced slot by slot
		// in ascending order — the exact summation shape of the parallel
		// path, so width 1 matches width k bit for bit.
		acc := mat.GetWorkspace(n, n, false)
		for si := 0; si < slots; si++ {
			lo, hi := fusedSlotBounds(m, slots, si)
			acc.Zero()
			fusedSyrkCols(a, lo, hi, 0, n, acc)
			addUpper(w, acc)
		}
		mat.PutWorkspace(acc)
		SymmetrizeFromUpper(w)
		return
	}
	// Parallel path: workers claim contiguous slot subranges with private
	// accumulators; the reduction walks slots in ascending index order
	// regardless of which worker filled them.
	accs := make([]*mat.Dense, slots)
	taskRanges := parallel.Split(slots, wk, 1)
	tasks := make([]func(), len(taskRanges))
	for ti, tr := range taskRanges {
		tasks[ti] = func() {
			for si := tr.Lo; si < tr.Hi; si++ {
				acc := mat.GetWorkspace(n, n, true)
				lo, hi := fusedSlotBounds(m, slots, si)
				fusedSyrkCols(a, lo, hi, 0, n, acc)
				accs[si] = acc
			}
		}
	}
	e.Do(tasks...)
	for _, acc := range accs {
		addUpper(w, acc)
		mat.PutWorkspace(acc)
	}
	SymmetrizeFromUpper(w)
}

// GramPanelAcc accumulates acc += PᵀP (upper triangle only) for a
// resident row panel P, in exactly the summation order GramFixed uses
// for the same rows: ascending 4-row quads anchored at the panel's first
// row, remainder rows last. Parallelism partitions the accumulator's
// output rows (at even row-pair boundaries), never the summation
// dimension, so the per-element accumulation order — and hence every bit
// of acc — is independent of the engine width.
//
// An out-of-core Gram sweep calls this once per panel with the panel's
// slot accumulator, then reduces the slot accumulators with
// ReduceGramSlots. Bit-identity with GramFixed requires the panel to
// start on its slot's FusedBlockRows grid (schedule contract above).
// Native kernels only: the caller is expected to have pinned the native
// backend (internal/ooc rejects others up front).
func GramPanelAcc(e *parallel.Engine, panel, acc *mat.Dense) {
	n := panel.Cols
	if acc.Rows != n || acc.Cols != n {
		panic(fmt.Sprintf("blas: GramPanelAcc acc %d×%d, want %d×%d", acc.Rows, acc.Cols, n, n))
	}
	if panel.Rows == 0 || n == 0 {
		return
	}
	sp := trace.BackendRegion(trace.KernelSyrk, nativeHandle.traceID)
	defer sp.End()
	trace.AddFlopsBackend(trace.KernelSyrk, nativeHandle.traceID,
		int64(panel.Rows)*int64(n)*int64(n+1))
	fusedSyrkColsParallel(e, panel, acc)
}

// FusedPanelPivot applies the fused permute→TRSM→Gram pass to one
// resident row panel: every row of the panel is column-gathered through
// perm (nil means identity), solved in place against the upper
// triangular R, and accumulated into acc += PᵀP (upper triangle). It is
// the panel-granular form of the native PermTrsmGram slot kernel: the
// micro-block grid anchors at the panel's first row, so a panel cut on
// its slot's FusedBlockRows grid reproduces the in-core pass bit for
// bit. The permute+TRSM stage parallelizes over micro-blocks (rows are
// independent); the Gram stage partitions accumulator output rows like
// GramPanelAcc. Native kernels only; the caller validates R (see
// PermTrsmGramFused) once per sweep, not per panel.
func FusedPanelPivot(e *parallel.Engine, panel *mat.Dense, perm mat.Perm, r, acc *mat.Dense) {
	rows, n := panel.Rows, panel.Cols
	checkTriangular(r, n, "FusedPanelPivot")
	if acc.Rows != n || acc.Cols != n {
		panic(fmt.Sprintf("blas: FusedPanelPivot acc %d×%d, want %d×%d", acc.Rows, acc.Cols, n, n))
	}
	if perm != nil && len(perm) != n {
		panic(fmt.Sprintf("blas: FusedPanelPivot perm length %d != cols %d", len(perm), n))
	}
	if rows == 0 || n == 0 {
		return
	}
	sp := trace.BackendRegion(trace.KernelFusedTrsmGram, nativeHandle.traceID)
	defer sp.End()
	trace.AddFlopsBackend(trace.KernelFusedTrsmGram, nativeHandle.traceID,
		int64(rows)*int64(n)*int64(n)+int64(rows)*int64(n)*int64(n+1))
	trace.AddBytesBackend(trace.KernelFusedTrsmGram, nativeHandle.traceID, 2*8*int64(rows)*int64(n))

	// Stage 1 — permute + TRSM, parallel over micro-blocks. Each block's
	// rows are gathered and solved exactly as fusedSlotRange would: the
	// quad grouping anchors at the block start, so the result per row is a
	// function of the grid alone, never of which worker ran the block.
	blocks := (rows + fusedBlockRows - 1) / fusedBlockRows
	e.For(blocks, 1, func(bLo, bHi int) {
		tmp := mat.GetWorkspace(1, n, false)
		for bi := bLo; bi < bHi; bi++ {
			q := bi * fusedBlockRows
			qhi := q + fusedBlockRows
			if qhi > rows {
				qhi = rows
			}
			if perm != nil {
				for i := q; i < qhi; i++ {
					row := panel.Data[i*panel.Stride : i*panel.Stride+n]
					copy(tmp.Data, row)
					for j, v := range perm {
						row[j] = tmp.Data[v]
					}
				}
			}
			fusedTrsmRange(panel, r, q, qhi)
		}
		mat.PutWorkspace(tmp)
	})

	// Stage 2 — Gram accumulation over the solved panel.
	fusedSyrkColsParallel(e, panel, acc)
}

// ReduceGramSlots reduces per-slot Gram accumulators into W in ascending
// slot order and symmetrizes — the tail of GramFixed, split out so an
// out-of-core sweep can run the accumulation panel by panel and close
// the reduction once per sweep.
func ReduceGramSlots(w *mat.Dense, accs []*mat.Dense) {
	w.Zero()
	for _, acc := range accs {
		addUpper(w, acc)
	}
	SymmetrizeFromUpper(w)
}

// fusedSyrkColsParallel partitions acc's output rows at even row-pair
// boundaries and runs fusedSyrkCols on each partition: every acc element
// still receives its updates in ascending summation-quad order, so the
// result is bit-identical for every partition — and therefore for every
// engine width.
func fusedSyrkColsParallel(e *parallel.Engine, b, acc *mat.Dense) {
	n := b.Cols
	pairs := (n + 1) / 2
	if e.Workers() == 1 || mulFlops(b.Rows, n, n) < gemmParallelFlops {
		fusedSyrkCols(b, 0, b.Rows, 0, n, acc)
		return
	}
	e.For(pairs, 1, func(pLo, pHi int) {
		iHi := 2 * pHi
		if iHi > n {
			iHi = n
		}
		fusedSyrkCols(b, 0, b.Rows, 2*pLo, iHi, acc)
	})
}
