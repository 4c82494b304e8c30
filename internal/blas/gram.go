package blas

import (
	"fmt"
	"sync"

	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/mat"
)

// Gram and its panel-granular faces. Gram's floating-point summation
// order is a function of the row count alone: every element is one fma
// chain over the rows of its slot, in order. The panel entry points
// (GramPanelAcc, FusedPanelPivot, ReduceGramSlots) let an out-of-core
// driver replay exactly the same order one resident panel at a time, and
// the schedule helpers (FusedSlots, FusedSlotBounds) export the slot
// partition. A panel may be cut at any row inside a slot, so long as
// panels never straddle a slot bound and are fed in ascending order —
// the whole bit-identity story of internal/ooc (DESIGN.md §14).

// FusedSlots reports the fixed reduction fan-out the row-summation
// kernels use for an m-row pass — a function of m alone, never of the
// engine width.
func FusedSlots(m int) int { return fusedSlots(m) }

// FusedSlotBounds reports the half-open row range of slot si of slots
// over m rows, matching the partition the kernels use internally.
func FusedSlotBounds(m, slots, si int) (lo, hi int) {
	return fusedSlotBounds(m, slots, si)
}

// Gram computes the full symmetric Gram matrix W = AᵀA. This is the
// kernel on line 1 of CholQR (Algorithm 2) and line 3 of Ite-CholQR-CP
// (Algorithm 4). Rows are partitioned into FusedSlots(m) slots
// (reduceRows); each slot accumulates with the register-tiled SYRK
// (fusedSyrkCols on tileTN), one fma chain per element over the slot's
// rows in order, and the per-slot partials reduce into W in ascending
// slot order. Every engine width therefore produces
// bit-identical W.
func Gram(e *parallel.Engine, w *mat.Dense, a *mat.Dense) {
	gram(e, w, a, gramRows, "Gram")
}

// gram runs one of the Gram kernels through reduceRows into the zeroed
// W and mirrors the upper triangle.
func gram(e *parallel.Engine, w, a *mat.Dense, kernel rowKernel, who string) {
	m, n := a.Rows, a.Cols
	if w.Rows != n || w.Cols != n {
		panic(fmt.Sprintf("blas: %s W %d×%d, want %d×%d", who, w.Rows, w.Cols, n, n))
	}
	w.Zero()
	if m == 0 || n == 0 {
		return
	}
	sp := trace.Region(trace.KernelSyrk)
	defer sp.End()
	trace.AddFlops(trace.KernelSyrk, int64(m)*int64(n)*int64(n+1))
	reduceRows(e, m, mulFlops(m, n, n), w, true, rowJob{a: a}, kernel)
	SymmetrizeFromUpper(w)
}

// gramRows is Gram's reduceRows kernel.
func gramRows(job rowJob, lo, hi int, acc *mat.Dense) {
	fusedSyrkCols(job.a, lo, hi, 0, job.a.Cols, acc)
}

// Gram32 computes W = AᵀA like Gram, but accumulates in single
// precision: every partial sum is rounded to float32, as in the
// mixed-precision Cholesky QR of Yamazaki, Tomov and Dongarra (the
// paper's reference [10]). Each slot accumulates in a float32 scratch
// and the slot partials reduce in float64 through the same fixed slot
// reduction as Gram, so the result is bit-identical across engine
// widths. It exists for that comparator's accuracy study, not for speed.
func Gram32(e *parallel.Engine, w *mat.Dense, a *mat.Dense) {
	gram(e, w, a, gram32Rows, "Gram32")
}

// gram32Rows is Gram32's reduceRows kernel: it accumulates the upper
// triangle of the Gram contribution of rows [lo, hi) in a float32
// scratch, then adds it to acc.
func gram32Rows(job rowJob, lo, hi int, acc *mat.Dense) {
	n := job.a.Cols
	p := getFloats32(n * n)
	syrk32Range(job.a, lo, hi, *p)
	for i := 0; i < n; i++ {
		arow := acc.Data[i*acc.Stride : i*acc.Stride+n]
		srow := (*p)[i*n : i*n+n]
		for j := i; j < n; j++ {
			arow[j] += float64(srow[j])
		}
	}
	floats32Pool.Put(p)
}

// syrk32Range accumulates the float32 Gram contribution of rows [lo, hi)
// of A into the n×n row-major upper triangle of acc. Summation rows are
// consumed in ascending quads anchored at lo, so the order is a function
// of the slot bounds alone.
//
//repolint:hotpath
func syrk32Range(a *mat.Dense, lo, hi int, acc []float32) {
	n := a.Cols
	l := lo
	for ; l+4 <= hi; l += 4 {
		r0 := a.Data[l*a.Stride : l*a.Stride+n]
		r1 := a.Data[(l+1)*a.Stride : (l+1)*a.Stride+n]
		r2 := a.Data[(l+2)*a.Stride : (l+2)*a.Stride+n]
		r3 := a.Data[(l+3)*a.Stride : (l+3)*a.Stride+n]
		for i := 0; i < n; i++ {
			v0 := float32(r0[i])
			v1 := float32(r1[i])
			v2 := float32(r2[i])
			v3 := float32(r3[i])
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			row := acc[i*n : i*n+n]
			for j := i; j < n; j++ {
				row[j] += v0*float32(r0[j]) + v1*float32(r1[j]) +
					v2*float32(r2[j]) + v3*float32(r3[j])
			}
		}
	}
	for ; l < hi; l++ {
		rk := a.Data[l*a.Stride : l*a.Stride+n]
		for i := 0; i < n; i++ {
			v := float32(rk[i])
			if v == 0 {
				continue
			}
			row := acc[i*n : i*n+n]
			for j := i; j < n; j++ {
				row[j] += v * float32(rk[j])
			}
		}
	}
}

// floats32Pool recycles Gram32's float32 scratch so the width-1 path
// stays allocation free after warm-up.
var floats32Pool sync.Pool

// getFloats32 returns a zeroed pooled float32 slice of length n.
func getFloats32(n int) *[]float32 {
	if p, ok := floats32Pool.Get().(*[]float32); ok && cap(*p) >= n {
		*p = (*p)[:n]
		clear(*p)
		return p
	}
	s := make([]float32, n)
	return &s
}

// GramPanelAcc accumulates acc += PᵀP (upper triangle only) for a
// resident row panel P, continuing each element's chain over the
// panel's rows in order, exactly as Gram does for the same rows.
// Parallelism partitions the accumulator's output rows, never the
// summation dimension, so every bit of acc is independent of the engine
// width.
//
// An out-of-core Gram sweep calls this once per panel, in row order,
// with the panel's slot accumulator, then reduces the slot accumulators
// with ReduceGramSlots; the result is Gram's bit for bit wherever the
// panels are cut inside their slots.
func GramPanelAcc(e *parallel.Engine, panel, acc *mat.Dense) {
	n := panel.Cols
	if acc.Rows != n || acc.Cols != n {
		panic(fmt.Sprintf("blas: GramPanelAcc acc %d×%d, want %d×%d", acc.Rows, acc.Cols, n, n))
	}
	if panel.Rows == 0 || n == 0 {
		return
	}
	sp := trace.Region(trace.KernelSyrk)
	defer sp.End()
	trace.AddFlops(trace.KernelSyrk,
		int64(panel.Rows)*int64(n)*int64(n+1))
	fusedSyrkColsParallel(e, panel, acc)
}

// FusedPanelPivot applies the fused permute→TRSM→Gram pass to one
// resident row panel: every row of the panel is column-gathered through
// perm (nil means identity), solved in place against the upper
// triangular R, and accumulated into acc += PᵀP (upper triangle). It is
// the panel-granular form of PermTrsmGramFused's slot kernel, so panels
// fed in row order reproduce the in-core pass bit for bit wherever they
// are cut inside their slots. The permute+TRSM stage parallelizes over
// micro-blocks (rows are independent); the Gram stage partitions
// accumulator output rows like GramPanelAcc. The caller validates R (see PermTrsmGramFused) once per
// sweep, not per panel.
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
	sp := trace.Region(trace.KernelFusedTrsmGram)
	defer sp.End()
	trace.AddFlops(trace.KernelFusedTrsmGram,
		int64(rows)*int64(n)*int64(n)+int64(rows)*int64(n)*int64(n+1))
	trace.AddBytes(trace.KernelFusedTrsmGram, 2*8*int64(rows)*int64(n))

	// Stage 1 — permute + TRSM, parallel over micro-blocks. Each row is
	// gathered and solved exactly as fusedSlotRange would, whichever
	// worker ran its block.
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
// slot order and symmetrizes — the tail of Gram, split out so an
// out-of-core sweep can run the accumulation panel by panel and close
// the reduction once per sweep.
func ReduceGramSlots(w *mat.Dense, accs []*mat.Dense) {
	w.Zero()
	for _, acc := range accs {
		addPartial(w, acc, true)
	}
	SymmetrizeFromUpper(w)
}

// fusedSyrkColsParallel partitions acc's output rows into 4-row blocks
// and runs fusedSyrkCols on each partition: every acc element still
// takes its chain over the rows of b in order, so the result is
// bit-identical for every partition — and therefore for every engine
// width.
func fusedSyrkColsParallel(e *parallel.Engine, b, acc *mat.Dense) {
	n := b.Cols
	if e.Workers() == 1 || mulFlops(b.Rows, n, n) < gemmParallelFlops {
		fusedSyrkCols(b, 0, b.Rows, 0, n, acc)
		return
	}
	e.For((n+3)/4, 1, func(pLo, pHi int) {
		fusedSyrkCols(b, 0, b.Rows, 4*pLo, min(4*pHi, n), acc)
	})
}
