package blas

import (
	"repro/internal/parallel"
	"repro/mat"
)

// rowJob carries the operands of one row-summation kernel through
// reduceRows; each kernel reads the fields it needs. It travels by value
// so the width-1 path never moves it to the heap.
type rowJob struct {
	alpha   float64
	a, b, r *mat.Dense
	x       []float64
	perm    mat.Perm
}

// rowKernel accumulates the contribution of summation rows [lo, hi) of
// job into dst. Its summation order must be a function of (lo, hi)
// alone, never of which goroutine runs it.
type rowKernel func(job rowJob, lo, hi int, dst *mat.Dense)

// reduceRows is the package's one reduction over a summation dimension
// of length k: it computes C += Σ kernel(job, rows) for every kernel
// that sums over rows (Gram, SYRK, Aᵀ·B, Aᵀ·x, the fused pass). The k
// rows are cut into fusedSlots(k) slots, a function of k alone; every slot
// accumulates into its own partial, and the partials reduce into C in
// ascending slot order (upper triangle only when upper is set). Engine
// width only decides how many slots run at once, so every width produces
// the same bits. With a single slot (k < 2·fusedMinSlotRows) the kernel
// accumulates straight into C.
//
// flops is the multiply-add count of the whole job; below
// gemmParallelFlops the slots run one after another on the caller with
// one reused partial, which keeps the width-1 path allocation free.
func reduceRows(e *parallel.Engine, k, flops int, c *mat.Dense, upper bool, job rowJob, kernel rowKernel) {
	slots := fusedSlots(k)
	if slots == 1 {
		kernel(job, 0, k, c)
		return
	}
	w := e.Workers()
	if w == 1 || flops < gemmParallelFlops {
		acc := mat.GetWorkspace(c.Rows, c.Cols, false)
		for si := 0; si < slots; si++ {
			lo, hi := fusedSlotBounds(k, slots, si)
			acc.Zero()
			kernel(job, lo, hi, acc)
			addPartial(c, acc, upper)
		}
		mat.PutWorkspace(acc)
		return
	}
	// Workers claim contiguous slot subranges with one partial per slot;
	// the reduction walks the slots in ascending index order regardless
	// of which worker filled them.
	accs := make([]*mat.Dense, slots)
	taskRanges := parallel.Split(slots, w, 1)
	tasks := make([]func(), len(taskRanges))
	for ti, tr := range taskRanges {
		tasks[ti] = func() {
			for si := tr.Lo; si < tr.Hi; si++ {
				acc := mat.GetWorkspace(c.Rows, c.Cols, true)
				lo, hi := fusedSlotBounds(k, slots, si)
				kernel(job, lo, hi, acc)
				accs[si] = acc
			}
		}
	}
	e.Do(tasks...)
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
