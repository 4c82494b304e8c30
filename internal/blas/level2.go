package blas

import (
	"fmt"

	"repro/internal/parallel"
	"repro/mat"
)

// gemvParallelThreshold is the minimum number of matrix elements before a
// Level-2 kernel fans out across cores; below it goroutine startup costs
// more than the memory traffic it hides.
const gemvParallelThreshold = 1 << 15

// Gemv computes y = alpha·op(A)·x + beta·y. The engine e bounds the
// parallel width.
func Gemv(e *parallel.Engine, t Transpose, alpha float64, a *mat.Dense, x []float64, beta float64, y []float64) {
	rows, cols := dims(t, a)
	if len(x) != cols || len(y) != rows {
		panic(fmt.Sprintf("blas: Gemv op(A) %d×%d with x[%d], y[%d]", rows, cols, len(x), len(y)))
	}
	if t == NoTrans {
		gemvN(e, alpha, a, x, beta, y)
	} else {
		gemvT(e, alpha, a, x, beta, y)
	}
}

func gemvN(e *parallel.Engine, alpha float64, a *mat.Dense, x []float64, beta float64, y []float64) {
	n := a.Cols
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := a.Data[i*a.Stride : i*a.Stride+n]
			var s0, s1, s2, s3 float64
			j := 0
			for ; j+4 <= n; j += 4 {
				s0 += row[j] * x[j]
				s1 += row[j+1] * x[j+1]
				s2 += row[j+2] * x[j+2]
				s3 += row[j+3] * x[j+3]
			}
			for ; j < n; j++ {
				s0 += row[j] * x[j]
			}
			y[i] = alpha*(s0+s1+s2+s3) + beta*y[i]
		}
	}
	if a.Rows*a.Cols < gemvParallelThreshold {
		body(0, a.Rows)
		return
	}
	minChunk := gemvParallelThreshold / (a.Cols + 1)
	e.For(a.Rows, minChunk+1, body)
}

// gemvT: y = alpha·Aᵀ·x + beta·y. The summation runs over the rows of A,
// so it goes through the fixed slot reduction (ReduceRows) with y as a
// pooled 1×n partial and is bit-identical for every engine width.
func gemvT(e *parallel.Engine, alpha float64, a *mat.Dense, x []float64, beta float64, y []float64) {
	acc := mat.GetWorkspace(1, len(y), false)
	for j, v := range y {
		acc.Data[j] = beta * v
	}
	ReduceRows(e, a.Rows, mulFlops(2, a.Rows, a.Cols), acc, false, rowJob{alpha: alpha, a: a, x: x}, gemvTRows)
	copy(y, acc.Data)
	mat.PutWorkspace(acc)
}

// gemvTRows is gemvT's ReduceRows kernel: dst += alpha·x(lo:hi)ᵀ·A(lo:hi,:).
func gemvTRows(job rowJob, lo, hi int, dst *mat.Dense) {
	a, y := job.a, dst.Data[:dst.Cols]
	for i := lo; i < hi; i++ {
		xi := job.alpha * job.x[i]
		if xi == 0 {
			continue
		}
		for j, v := range a.Data[i*a.Stride : i*a.Stride+a.Cols] {
			y[j] += xi * v
		}
	}
}

// Ger computes A += alpha·x·yᵀ. The engine e bounds the parallel width.
func Ger(e *parallel.Engine, alpha float64, x, y []float64, a *mat.Dense) {
	if len(x) != a.Rows || len(y) != a.Cols {
		panic(fmt.Sprintf("blas: Ger A %d×%d with x[%d], y[%d]", a.Rows, a.Cols, len(x), len(y)))
	}
	if alpha == 0 {
		return
	}
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xi := alpha * x[i]
			if xi == 0 {
				continue
			}
			row := a.Data[i*a.Stride : i*a.Stride+a.Cols]
			for j, v := range y {
				row[j] += xi * v
			}
		}
	}
	if a.Rows*a.Cols < gemvParallelThreshold {
		body(0, a.Rows)
		return
	}
	minChunk := gemvParallelThreshold / (a.Cols + 1)
	e.For(a.Rows, minChunk+1, body)
}

// SparseSignMulAdd computes C += S·B for the c.Rows × b.Rows sparse
// sign matrix S, b.Rows ≤ 64, held as two bit masks a row: S[t][i] is w
// where bit i of rows[t] is set, −w where bit i of neg[t] is set too,
// and 0 elsewhere. Each element of C is one fused multiply-add chain
// over its row's set bits in ascending order,
//
//	C[t][j] = fma(±w, B[i][j], C[t][j]),   i ascending over the bits of rows[t],
//
// so the zmm, ymm and Go forms give the same bits. A bit naming a row
// outside B panics. c must not overlap b. It is the accumulation of the
// sparse sketch (internal/sketch), one block of up to 64 input rows a
// call: row t of C is held in registers across all of row t of S.
//
//repolint:hotpath
func SparseSignMulAdd(c *mat.Dense, rows, neg []uint64, w float64, b *mat.Dense) {
	if len(rows) != c.Rows || len(neg) != c.Rows || b.Rows > 64 || c.Cols != b.Cols {
		sparseSignShapePanic(c, rows, neg, b)
	}
	ws := [2]float64{w, -w}
	// Cap the storage at the last row, so a bit past B's last row
	// panics even where a view's parent continues.
	signRows(rowsData(c), c.Stride, rowsData(b), b.Stride, c.Cols, rows, neg, &ws)
}

// sparseSignShapePanic reports SparseSignMulAdd operands of the wrong
// shape, off the hot path.
func sparseSignShapePanic(c *mat.Dense, rows, neg []uint64, b *mat.Dense) {
	panic(fmt.Sprintf("blas: SparseSignMulAdd C %d×%d with %d and %d masks and B %d×%d",
		c.Rows, c.Cols, len(rows), len(neg), b.Rows, b.Cols))
}

// rowsData returns a's storage up to the end of its last row.
func rowsData(a *mat.Dense) []float64 {
	if a.Rows == 0 {
		return nil
	}
	end := (a.Rows-1)*a.Stride + a.Cols
	return a.Data[:end:end]
}
