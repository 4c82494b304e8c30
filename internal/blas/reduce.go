package blas

import (
	"repro/internal/parallel"
	"repro/mat"
)

// rowJob carries the operands of one row-summation kernel of this package
// through ReduceRows; each kernel reads the fields it needs.
type rowJob struct {
	alpha   float64
	a, b, r *mat.Dense
	x       []float64
	perm    mat.Perm
}

// ReduceRows is the one reduction over a summation dimension of length
// k: it computes C += Σ kernel(job, rows) for every kernel that sums over
// rows (Gram, SYRK, Aᵀ·B, Aᵀ·x, the fused pass, the sketch). The k rows
// are cut into FusedSlots(k) slots, a function of k alone; every slot
// accumulates into its own partial, and the partials reduce into C in
// ascending slot order (upper triangle only when upper is set). Engine
// width only decides how many slots run at once, so every width produces
// the same bits. With a single slot (k < 2·fusedMinSlotRows) the kernel
// accumulates straight into C.
//
// kernel accumulates the contribution of summation rows [lo, hi) of job
// into its last argument; its summation order must be a function of
// (lo, hi) alone, never of which goroutine runs it. The job travels by
// value and kernel should be a top-level func, so the width-1 path never
// moves either to the heap.
//
// flops is the multiply-add count of the whole job; below
// gemmParallelFlops the slots run one after another on the caller with
// one reused partial, which keeps the width-1 path allocation free.
func ReduceRows[J any](e *parallel.Engine, k, flops int, c *mat.Dense, upper bool, job J, kernel func(J, int, int, *mat.Dense)) {
	slots := FusedSlots(k)
	if slots == 1 {
		kernel(job, 0, k, c)
		return
	}
	if e.Workers() == 1 || flops < gemmParallelFlops {
		acc := mat.GetWorkspace(c.Rows, c.Cols, false)
		for si := 0; si < slots; si++ {
			lo, hi := FusedSlotBounds(k, slots, si)
			acc.Zero()
			kernel(job, lo, hi, acc)
			addPartial(c, acc, upper)
		}
		mat.PutWorkspace(acc)
		return
	}
	// Chunks of contiguous slots fill one partial per slot; the reduction
	// walks the slots in ascending index order regardless of which worker
	// filled them.
	accs := make([]*mat.Dense, slots)
	e.For(slots, 1, func(slo, shi int) {
		for si := slo; si < shi; si++ {
			acc := mat.GetWorkspace(c.Rows, c.Cols, true)
			lo, hi := FusedSlotBounds(k, slots, si)
			kernel(job, lo, hi, acc)
			accs[si] = acc
		}
	})
	for _, acc := range accs {
		addPartial(c, acc, upper)
		mat.PutWorkspace(acc)
	}
}

// addPartial accumulates one slot partial into dst: the upper triangle
// when upper is set, every entry otherwise.
func addPartial(dst, src *mat.Dense, upper bool) {
	for i := 0; i < dst.Rows; i++ {
		drow := dst.Data[i*dst.Stride : i*dst.Stride+dst.Cols]
		srow := src.Data[i*src.Stride : i*src.Stride+src.Cols]
		j0 := 0
		if upper {
			j0 = i
		}
		for j := j0; j < len(drow); j++ {
			drow[j] += srow[j]
		}
	}
}
