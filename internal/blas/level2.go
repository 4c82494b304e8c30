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
// parallel width (nil selects the default engine).
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
// so it goes through the fixed slot reduction (reduceRows) with y as a
// pooled 1×n partial and is bit-identical for every engine width.
func gemvT(e *parallel.Engine, alpha float64, a *mat.Dense, x []float64, beta float64, y []float64) {
	acc := mat.GetWorkspace(1, len(y), false)
	for j, v := range y {
		acc.Data[j] = beta * v
	}
	reduceRows(e, a.Rows, mulFlops(2, a.Rows, a.Cols), acc, false, rowJob{alpha: alpha, a: a, x: x}, gemvTRows)
	copy(y, acc.Data)
	mat.PutWorkspace(acc)
}

// gemvTRows is gemvT's reduceRows kernel: dst += alpha·x(lo:hi)ᵀ·A(lo:hi,:).
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

// Ger computes A += alpha·x·yᵀ. The engine e bounds the parallel width
// (nil selects the default engine).
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

// ScatterRows adds weighted copies of row into rows of A:
//
//	A[t[k], :] += w[k]·row,   k = 0, 1, …, len(t)−1 in order,
//
// a Ger whose x is nonzero only at the target rows t, which may repeat.
// It is the inner loop of both sketch embeddings (internal/sketch). Each
// element takes one fused multiply-add, fma(w[k], row[j], A[t[k], j]), so
// the AVX2 and Go forms give the same bits. row holds A.Cols entries and w at least len(t); a target
// outside [0, A.Rows) panics.
//
//repolint:hotpath
func ScatterRows(a *mat.Dense, row []float64, t []int, w []float64) {
	// Cap the storage at the last row, so a target past it panics even
	// where a view's parent continues.
	var data []float64
	if a.Rows > 0 {
		end := (a.Rows-1)*a.Stride + a.Cols
		data = a.Data[:end:end]
	}
	scatterRows(data, a.Stride, row[:a.Cols], t, w[:len(t)])
}

// SyrUpper computes the upper triangle of W += alpha·x·xᵀ for symmetric W.
// Only elements W[i][j] with j ≥ i are touched.
func SyrUpper(alpha float64, x []float64, w *mat.Dense) {
	if w.Rows != w.Cols || len(x) != w.Rows {
		panic(fmt.Sprintf("blas: SyrUpper W %d×%d with x[%d]", w.Rows, w.Cols, len(x)))
	}
	if alpha == 0 {
		return
	}
	for i, xi := range x {
		axi := alpha * xi
		if axi == 0 {
			continue
		}
		row := w.Data[i*w.Stride : i*w.Stride+w.Cols]
		for j := i; j < len(x); j++ {
			row[j] += axi * x[j]
		}
	}
}
