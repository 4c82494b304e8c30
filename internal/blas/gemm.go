package blas

import (
	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/mat"
)

const (
	// kBlock is the tile height along the summation dimension of the
	// GEMMs: one tile of B rows stays resident in L2 while every 4-row
	// block of C takes its updates from it, and one block of packed A
	// (4·kBlock entries) fits on the stack.
	kBlock = 256
	// gemmParallelFlops is the minimum multiply-add count before Gemm
	// fans out across cores.
	gemmParallelFlops = 1 << 16
	// maxPrivateAcc bounds the size (in float64s) of the per-slot
	// output partials of the reduction-based Aᵀ·B path.
	maxPrivateAcc = 1 << 22
)

// Gemm computes C = alpha·op(A)·op(B) + beta·C, where op is the identity
// or transpose as selected by tA and tB. C must not alias A or B. It runs
// on the tile kernels (tileNN, tileTN). Aᵀ·Bᵀ is not
// supported: no caller needs it, and Gemm panics on it.
func Gemm(e *parallel.Engine, tA, tB Transpose, alpha float64, a, b *mat.Dense, beta float64, c *mat.Dense) {
	if tA == Trans && tB == Trans {
		panic("blas: Gemm does not support Aᵀ·Bᵀ")
	}
	m, n, k := checkGemm(tA, tB, a, b, c)
	if m == 0 || n == 0 {
		return
	}
	if beta != 1 {
		scaleMatrix(beta, c)
	}
	if alpha == 0 || k == 0 {
		return
	}
	sp := trace.Region(trace.KernelGemm)
	defer sp.End()
	trace.AddFlops(trace.KernelGemm, 2*int64(m)*int64(n)*int64(k))
	switch {
	case tA == Trans:
		gemmTN(e, alpha, a, b, c)
	case tB == Trans:
		gemmNT(e, alpha, a, b, c)
	default:
		gemmNN(e, alpha, a, b, c)
	}
}

func scaleMatrix(beta float64, c *mat.Dense) {
	for i := 0; i < c.Rows; i++ {
		row := c.Data[i*c.Stride : i*c.Stride+c.Cols]
		if beta == 0 {
			for j := range row {
				row[j] = 0
			}
			continue
		}
		for j := range row {
			row[j] *= beta
		}
	}
}

// gemmNN: C += alpha·A·B, parallel over row ranges of C. Every row takes
// the same arithmetic whichever range it falls in, so the result is
// bit-identical for every engine width.
func gemmNN(e *parallel.Engine, alpha float64, a, b, c *mat.Dense) {
	m, n, k := c.Rows, c.Cols, a.Cols
	if mulFlops(2, m, n, k) < gemmParallelFlops || e.Workers() == 1 {
		gemmNNRange(alpha, a, b, c, 0, m)
		return
	}
	minChunk := gemmParallelFlops / (mulFlops(2, n, k) + 1)
	e.For(m, minChunk+1, func(lo, hi int) {
		gemmNNRange(alpha, a, b, c, lo, hi)
	})
}

// gemmNNRange updates rows [lo, hi) of C += alpha·A·B. For each kBlock
// tile of the summation dimension, each 4-row block of C packs
// v = −alpha times its rows of A on the stack and runs tileNN across the
// columns: negation is exact, so every element takes
// c = fma(alpha·a, b, c) over t in ascending order.
//
//repolint:hotpath
func gemmNNRange(alpha float64, a, b, c *mat.Dense, lo, hi int) {
	n, k := c.Cols, a.Cols
	var v [4 * kBlock]float64
	for l0 := 0; l0 < k; l0 += kBlock {
		kc := min(kBlock, k-l0)
		for i := lo; i < hi; i += 4 {
			mr := min(4, hi-i)
			for s := 0; s < mr; s++ {
				arow := a.Data[(i+s)*a.Stride+l0 : (i+s)*a.Stride+l0+kc]
				vs := v[s*kBlock : s*kBlock+kc]
				for t, av := range arow {
					vs[t] = -(alpha * av)
				}
			}
			for j0 := 0; j0 < n; {
				nc := tileWidth(n - j0)
				tileNN(c.Data[i*c.Stride+j0:], c.Stride, v[:], kBlock, b.Data[l0*b.Stride+j0:], b.Stride, kc, mr, nc)
				j0 += nc
			}
		}
	}
}

// gemmTN: C += alpha·Aᵀ·B, the Gram-type product that dominates Cholesky
// QR. The summation runs over the (long) row dimension of A and B, so it
// goes through the fixed slot reduction (reduceRows) and is bit-identical
// for every engine width. An output too large for per-slot partials
// (more than maxPrivateAcc doubles) accumulates straight into C in one
// pass, which is width-independent too.
func gemmTN(e *parallel.Engine, alpha float64, a, b, c *mat.Dense) {
	m, n := c.Rows, c.Cols // m = a.Cols
	k := a.Rows
	if mulFlops(m, n) > maxPrivateAcc {
		gemmTNRange(alpha, a, b, 0, k, c)
		return
	}
	reduceRows(e, k, mulFlops(2, m, n, k), c, false, rowJob{alpha: alpha, a: a, b: b}, gemmTNRows)
}

// gemmTNRows is gemmTN's reduceRows kernel.
func gemmTNRows(job rowJob, lo, hi int, dst *mat.Dense) {
	gemmTNRange(job.alpha, job.a, job.b, lo, hi, dst)
}

// gemmTNRange accumulates dst += alpha·A(lo:hi,:)ᵀ·B(lo:hi,:): for each
// kBlock tile of summation rows, each 4-row block of dst packs alpha
// times its columns of A on the stack and runs tileTN across the
// columns, so every element takes dst = fma(alpha·a, b, dst) over the
// rows in ascending order.
//
//repolint:hotpath
func gemmTNRange(alpha float64, a, b *mat.Dense, lo, hi int, dst *mat.Dense) {
	m, n := dst.Rows, dst.Cols
	var v [kBlock * 4]float64
	for l0 := lo; l0 < hi; l0 += kBlock {
		kc := min(kBlock, hi-l0)
		for i := 0; i < m; i += 4 {
			mr := min(4, m-i)
			for t := 0; t < kc; t++ {
				arow := a.Data[(l0+t)*a.Stride+i : (l0+t)*a.Stride+i+mr]
				for s, av := range arow {
					v[4*t+s] = alpha * av
				}
			}
			for j0 := 0; j0 < n; {
				nc := tileWidth(n - j0)
				tileTN(dst.Data[i*dst.Stride+j0:], dst.Stride, v[:], 4, b.Data[l0*b.Stride+j0:], b.Stride, kc, mr, nc, false)
				j0 += nc
			}
		}
	}
}

// gemmNT: C += alpha·A·Bᵀ runs as gemmNN on Bᵀ, packed once per call
// into a pooled workspace.
func gemmNT(e *parallel.Engine, alpha float64, a, b, c *mat.Dense) {
	bt := mat.GetWorkspace(b.Cols, b.Rows, false)
	for j := 0; j < b.Rows; j++ {
		for l, bv := range b.Data[j*b.Stride : j*b.Stride+b.Cols] {
			bt.Data[l*bt.Stride+j] = bv
		}
	}
	gemmNN(e, alpha, a, bt, c)
	mat.PutWorkspace(bt)
}
