package blas

import (
	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/mat"
)

const (
	// kBlock is the tile height along the summation dimension of gemmNN:
	// one tile of B rows stays resident in L2 while every row quad of C
	// takes its updates from it.
	kBlock = 256
	// gemmParallelFlops is the minimum multiply-add count before Gemm
	// fans out across cores.
	gemmParallelFlops = 1 << 16
	// maxPrivateAcc bounds the size (in float64s) of the per-slot
	// output partials of the reduction-based Aᵀ·B path.
	maxPrivateAcc = 1 << 22
)

// Gemm computes C = alpha·op(A)·op(B) + beta·C, where op is the identity
// or transpose as selected by tA and tB. C must not alias A or B. Its
// rank-4 steps run on the quad kernel (gemmQuad). Aᵀ·Bᵀ is not
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
// tile of the summation dimension, every 4-row quad of C takes one
// rank-4 update (gemmQuad) per four rows of B, with v = −alpha times A's
// 4×4 block: negation is exact, so subtracting (−alpha·A)·B adds exactly
// alpha·A·B. The 1–3 rows past the last quad take the same 4-term
// updates one row at a time (gemmQuadRow), and the 1–3 summation rows
// past the last B quad follow as rank-1 updates.
//
//repolint:hotpath
func gemmNNRange(alpha float64, a, b, c *mat.Dense, lo, hi int) {
	n, k := c.Cols, a.Cols
	var v [16]float64
	for l0 := 0; l0 < k; l0 += kBlock {
		l1 := min(l0+kBlock, k)
		l4 := l0 + (l1-l0)&^3
		i := lo
		for ; i+4 <= hi; i += 4 {
			for l := l0; l < l4; l += 4 {
				for s := 0; s < 4; s++ {
					aq := a.Data[(i+s)*a.Stride+l : (i+s)*a.Stride+l+4]
					v[4*s], v[4*s+1] = -(alpha * aq[0]), -(alpha * aq[1])
					v[4*s+2], v[4*s+3] = -(alpha * aq[2]), -(alpha * aq[3])
				}
				gemmQuad(c.Data[i*c.Stride:], c.Stride, b.Data[l*b.Stride:], b.Stride, &v, 0, n)
			}
		}
		for ; i < hi; i++ {
			arow := a.Data[i*a.Stride : i*a.Stride+k]
			crow := c.Data[i*c.Stride : i*c.Stride+n]
			for l := l0; l < l4; l += 4 {
				gemmQuadRow(crow, b.Data[l*b.Stride:], b.Stride,
					-(alpha * arow[l]), -(alpha * arow[l+1]), -(alpha * arow[l+2]), -(alpha * arow[l+3]), 0, n)
			}
		}
		for l := l4; l < l1; l++ {
			brow := b.Data[l*b.Stride : l*b.Stride+n]
			for i := lo; i < hi; i++ {
				av := alpha * a.Data[i*a.Stride+l]
				crow := c.Data[i*c.Stride : i*c.Stride+n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
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

// gemmTNRange accumulates dst += alpha·A(lo:hi,:)ᵀ·B(lo:hi,:) like
// gemmNNRange: for each quad of summation rows, every 4-row quad of dst
// takes one rank-4 update (gemmQuad) with v = −alpha times Aᵀ's 4×4
// block, the 1–3 dst rows past the last quad take it one row at a time,
// and the 1–3 summation rows past the last quad follow as rank-1 updates.
//
//repolint:hotpath
func gemmTNRange(alpha float64, a, b *mat.Dense, lo, hi int, dst *mat.Dense) {
	m, n := dst.Rows, dst.Cols
	var v [16]float64
	l := lo
	for ; l+4 <= hi; l += 4 {
		a0 := a.Data[l*a.Stride : l*a.Stride+m]
		a1 := a.Data[(l+1)*a.Stride : (l+1)*a.Stride+m]
		a2 := a.Data[(l+2)*a.Stride : (l+2)*a.Stride+m]
		a3 := a.Data[(l+3)*a.Stride : (l+3)*a.Stride+m]
		bq := b.Data[l*b.Stride:]
		i := 0
		for ; i+4 <= m; i += 4 {
			for s := 0; s < 4; s++ {
				v[4*s], v[4*s+1] = -(alpha * a0[i+s]), -(alpha * a1[i+s])
				v[4*s+2], v[4*s+3] = -(alpha * a2[i+s]), -(alpha * a3[i+s])
			}
			gemmQuad(dst.Data[i*dst.Stride:], dst.Stride, bq, b.Stride, &v, 0, n)
		}
		for ; i < m; i++ {
			gemmQuadRow(dst.Data[i*dst.Stride:], bq, b.Stride,
				-(alpha * a0[i]), -(alpha * a1[i]), -(alpha * a2[i]), -(alpha * a3[i]), 0, n)
		}
	}
	for ; l < hi; l++ {
		arow := a.Data[l*a.Stride : l*a.Stride+m]
		brow := b.Data[l*b.Stride : l*b.Stride+n]
		for i, av := range arow {
			av *= alpha
			drow := dst.Data[i*dst.Stride : i*dst.Stride+n]
			for j, bv := range brow {
				drow[j] += av * bv
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
