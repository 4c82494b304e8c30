package blas

import (
	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/mat"
)

const (
	// kBlock is the tile width along the summation dimension; one tile of
	// B rows (kBlock × nBlock doubles) should stay resident in L2 while a
	// row panel of C is updated.
	kBlock = 256
	// nBlock is the tile width along the output columns. For n ≤ nBlock
	// the whole C row fits the cache and gemmNN tiles in k only; wider
	// products switch to the packed path that tiles in both j and k.
	nBlock = 256
	// ttIBlock is the output-row tile of the packed Aᵀ kernel in gemmTT:
	// one packed tile (ttIBlock × kBlock doubles) stays cache resident
	// while all rows of B stream against it.
	ttIBlock = 48
	// gemmParallelFlops is the minimum multiply-add count before Gemm
	// fans out across cores.
	gemmParallelFlops = 1 << 16
	// maxPrivateAcc bounds the size (in float64s) of the per-slot
	// output partials of the reduction-based Aᵀ·B path.
	maxPrivateAcc = 1 << 22
)

// Gemm computes C = alpha·op(A)·op(B) + beta·C, where op is the identity
// or transpose as selected by tA and tB. C must not alias A or B.
func Gemm(e *parallel.Engine, tA, tB Transpose, alpha float64, a, b *mat.Dense, beta float64, c *mat.Dense) {
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
	case tA == NoTrans && tB == NoTrans:
		gemmNN(e, alpha, a, b, c)
	case tA == Trans && tB == NoTrans:
		gemmTN(e, alpha, a, b, c)
	case tA == NoTrans && tB == Trans:
		gemmNT(e, alpha, a, b, c)
	default:
		gemmTT(e, alpha, a, b, c)
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

// gemmNN: C += alpha·A·B. Parallel over row panels of C. For n ≤ nBlock
// the summation dimension alone is tiled (the C row stays in L1) and four
// B rows are consumed per pass so each load/store of the C row amortizes
// four multiply-adds. Wider products tile in both j and k: each worker
// packs the active B tile into a contiguous pooled buffer so the inner
// kernel streams it independent of B's stride, and only an nBlock-wide
// segment of the C row is live per tile.
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

// gemmNNRange updates rows [lo, hi) of C += alpha·A·B, choosing between
// the narrow-n k-tiled kernel and the packed j×k-tiled kernel.
func gemmNNRange(alpha float64, a, b, c *mat.Dense, lo, hi int) {
	if c.Cols <= nBlock {
		gemmNNNarrow(alpha, a, b, c, lo, hi)
		return
	}
	gemmNNPacked(alpha, a, b, c, lo, hi)
}

func gemmNNNarrow(alpha float64, a, b, c *mat.Dense, lo, hi int) {
	n, k := c.Cols, a.Cols
	for l0 := 0; l0 < k; l0 += kBlock {
		l1 := min(l0+kBlock, k)
		for i := lo; i < hi; i++ {
			arow := a.Data[i*a.Stride : i*a.Stride+a.Cols]
			crow := c.Data[i*c.Stride : i*c.Stride+c.Cols]
			l := l0
			for ; l+4 <= l1; l += 4 {
				a0 := alpha * arow[l]
				a1 := alpha * arow[l+1]
				a2 := alpha * arow[l+2]
				a3 := alpha * arow[l+3]
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				b0 := b.Data[l*b.Stride : l*b.Stride+n]
				b1 := b.Data[(l+1)*b.Stride : (l+1)*b.Stride+n]
				b2 := b.Data[(l+2)*b.Stride : (l+2)*b.Stride+n]
				b3 := b.Data[(l+3)*b.Stride : (l+3)*b.Stride+n]
				for j := range crow {
					crow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
				}
			}
			for ; l < l1; l++ {
				av := alpha * arow[l]
				if av == 0 {
					continue
				}
				brow := b.Data[l*b.Stride : l*b.Stride+n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	}
}

//repolint:hotpath
func gemmNNPacked(alpha float64, a, b, c *mat.Dense, lo, hi int) {
	n, k := c.Cols, a.Cols
	packed := mat.GetFloats(kBlock*nBlock, false)
	defer mat.PutFloats(packed)
	for j0 := 0; j0 < n; j0 += nBlock {
		jb := min(nBlock, n-j0)
		for l0 := 0; l0 < k; l0 += kBlock {
			lb := min(kBlock, k-l0)
			for l := 0; l < lb; l++ {
				src := b.Data[(l0+l)*b.Stride+j0 : (l0+l)*b.Stride+j0+jb]
				copy(packed[l*jb:l*jb+jb], src)
			}
			for i := lo; i < hi; i++ {
				arow := a.Data[i*a.Stride+l0 : i*a.Stride+l0+lb]
				crow := c.Data[i*c.Stride+j0 : i*c.Stride+j0+jb]
				l := 0
				for ; l+4 <= lb; l += 4 {
					a0 := alpha * arow[l]
					a1 := alpha * arow[l+1]
					a2 := alpha * arow[l+2]
					a3 := alpha * arow[l+3]
					b0 := packed[l*jb : l*jb+jb]
					b1 := packed[(l+1)*jb : (l+1)*jb+jb]
					b2 := packed[(l+2)*jb : (l+2)*jb+jb]
					b3 := packed[(l+3)*jb : (l+3)*jb+jb]
					for j := range crow {
						crow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
					}
				}
				for ; l < lb; l++ {
					av := alpha * arow[l]
					brow := packed[l*jb : l*jb+jb]
					for j, bv := range brow {
						crow[j] += av * bv
					}
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

// gemmTNRange accumulates dst += alpha·A(lo:hi,:)ᵀ·B(lo:hi,:). Four
// summation rows are consumed together: each dst-row update then amortizes
// its load/store over four multiply-adds.
//
//repolint:hotpath
func gemmTNRange(alpha float64, a, b *mat.Dense, lo, hi int, dst *mat.Dense) {
	n := dst.Cols
	l := lo
	for ; l+4 <= hi; l += 4 {
		a0 := a.Data[l*a.Stride : l*a.Stride+a.Cols]
		a1 := a.Data[(l+1)*a.Stride : (l+1)*a.Stride+a.Cols]
		a2 := a.Data[(l+2)*a.Stride : (l+2)*a.Stride+a.Cols]
		a3 := a.Data[(l+3)*a.Stride : (l+3)*a.Stride+a.Cols]
		b0 := b.Data[l*b.Stride : l*b.Stride+n]
		b1 := b.Data[(l+1)*b.Stride : (l+1)*b.Stride+n]
		b2 := b.Data[(l+2)*b.Stride : (l+2)*b.Stride+n]
		b3 := b.Data[(l+3)*b.Stride : (l+3)*b.Stride+n]
		for i := 0; i < dst.Rows; i++ {
			v0 := alpha * a0[i]
			v1 := alpha * a1[i]
			v2 := alpha * a2[i]
			v3 := alpha * a3[i]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			drow := dst.Data[i*dst.Stride : i*dst.Stride+dst.Cols]
			for j := range drow {
				drow[j] += v0*b0[j] + v1*b1[j] + v2*b2[j] + v3*b3[j]
			}
		}
	}
	for ; l < hi; l++ {
		arow := a.Data[l*a.Stride : l*a.Stride+a.Cols]
		brow := b.Data[l*b.Stride : l*b.Stride+n]
		for i, av := range arow {
			av *= alpha
			if av == 0 {
				continue
			}
			drow := dst.Data[i*dst.Stride : i*dst.Stride+dst.Cols]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// gemmNT: C += alpha·A·Bᵀ. Each output element is a dot product of two
// contiguous rows; parallel over rows of C.
func gemmNT(e *parallel.Engine, alpha float64, a, b, c *mat.Dense) {
	m, n, k := c.Rows, c.Cols, a.Cols
	if mulFlops(2, m, n, k) < gemmParallelFlops || e.Workers() == 1 {
		gemmNTRange(alpha, a, b, c, 0, m)
		return
	}
	minChunk := gemmParallelFlops / (mulFlops(2, n, k) + 1)
	e.For(m, minChunk+1, func(lo, hi int) {
		gemmNTRange(alpha, a, b, c, lo, hi)
	})
}

func gemmNTRange(alpha float64, a, b, c *mat.Dense, lo, hi int) {
	n, k := c.Cols, a.Cols
	for i := lo; i < hi; i++ {
		arow := a.Data[i*a.Stride : i*a.Stride+a.Cols]
		crow := c.Data[i*c.Stride : i*c.Stride+c.Cols]
		for j := 0; j < n; j++ {
			brow := b.Data[j*b.Stride : j*b.Stride+b.Cols]
			// Four independent accumulators hide FMA latency.
			var s0, s1, s2, s3 float64
			l := 0
			for ; l+4 <= k; l += 4 {
				s0 += arow[l] * brow[l]
				s1 += arow[l+1] * brow[l+1]
				s2 += arow[l+2] * brow[l+2]
				s3 += arow[l+3] * brow[l+3]
			}
			for ; l < k; l++ {
				s0 += arow[l] * brow[l]
			}
			crow[j] += alpha * (s0 + s1 + s2 + s3)
		}
	}
}

// gemmTT: C += alpha·Aᵀ·Bᵀ. The columns of A that feed a tile of C rows
// are packed (transposed) into a contiguous pooled buffer, turning every
// output element into a contiguous dot product against a row of B with
// four independent accumulators — the strided inner loop this kernel used
// to run never vectorizes and thrashes the TLB for large k. The same
// packed kernel serves the sequential fallback, so small products get the
// register blocking too.
func gemmTT(e *parallel.Engine, alpha float64, a, b, c *mat.Dense) {
	m, n := c.Rows, c.Cols
	k := a.Rows
	if mulFlops(2, m, n, k) < gemmParallelFlops || e.Workers() == 1 {
		gemmTTRange(alpha, a, b, c, 0, m)
		return
	}
	minChunk := gemmParallelFlops / (mulFlops(2, n, k) + 1)
	e.For(m, minChunk+1, func(lo, hi int) {
		gemmTTRange(alpha, a, b, c, lo, hi)
	})
}

func gemmTTRange(alpha float64, a, b, c *mat.Dense, lo, hi int) {
	n, k := c.Cols, a.Rows
	packed := mat.GetFloats(ttIBlock*kBlock, false)
	defer mat.PutFloats(packed)
	for i0 := lo; i0 < hi; i0 += ttIBlock {
		ib := min(ttIBlock, hi-i0)
		for l0 := 0; l0 < k; l0 += kBlock {
			lb := min(kBlock, k-l0)
			// packed[(i−i0)·lb + (l−l0)] = A[l][i]: contiguous reads
			// along the rows of A, tile-local strided writes.
			for l := 0; l < lb; l++ {
				arow := a.Data[(l0+l)*a.Stride+i0 : (l0+l)*a.Stride+i0+ib]
				for i, av := range arow {
					packed[i*lb+l] = av
				}
			}
			for i := 0; i < ib; i++ {
				apk := packed[i*lb : i*lb+lb]
				crow := c.Data[(i0+i)*c.Stride : (i0+i)*c.Stride+n]
				for j := 0; j < n; j++ {
					brow := b.Data[j*b.Stride+l0 : j*b.Stride+l0+lb]
					var s0, s1, s2, s3 float64
					l := 0
					for ; l+4 <= lb; l += 4 {
						s0 += apk[l] * brow[l]
						s1 += apk[l+1] * brow[l+1]
						s2 += apk[l+2] * brow[l+2]
						s3 += apk[l+3] * brow[l+3]
					}
					for ; l < lb; l++ {
						s0 += apk[l] * brow[l]
					}
					crow[j] += alpha * (s0 + s1 + s2 + s3)
				}
			}
		}
	}
}
