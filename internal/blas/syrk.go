package blas

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/mat"
)

// syrkJBlock is the column-tile width of the wide-n SYRK path: the live
// accumulator segment per row quad is at most syrkJBlock doubles, so it
// stays in L1 while the quad streams. Narrow problems (n ≤ syrkJBlock)
// keep the untiled kernel, whose whole accumulator row already fits.
const syrkJBlock = 256

// SyrkUpperTrans computes the upper triangle of C = alpha·AᵀA + beta·C for
// symmetric C (n×n) and A (m×n). Elements strictly below the diagonal of C
// are left untouched. The summation over the m rows of A runs through
// the fixed slot reduction (reduceRows), so the result is bit-identical
// for every engine width; with fewer than 2·fusedMinSlotRows rows (every
// trailing update of PotrfUpper) it accumulates straight into C.
func SyrkUpperTrans(e *parallel.Engine, alpha float64, a *mat.Dense, beta float64, c *mat.Dense) {
	n := a.Cols
	if c.Rows != n || c.Cols != n {
		panic(fmt.Sprintf("blas: SyrkUpperTrans C %d×%d, want %d×%d", c.Rows, c.Cols, n, n))
	}
	for i := 0; i < n; i++ {
		row := c.Data[i*c.Stride : i*c.Stride+c.Cols]
		for j := i; j < n; j++ {
			row[j] *= beta
		}
	}
	if alpha == 0 || a.Rows == 0 || n == 0 {
		return
	}
	sp := trace.Region(trace.KernelSyrk)
	defer sp.End()
	trace.AddFlops(trace.KernelSyrk, int64(a.Rows)*int64(n)*int64(n+1))
	reduceRows(e, a.Rows, mulFlops(a.Rows, n, n), c, true, rowJob{alpha: alpha, a: a}, syrkRows)
}

// syrkRows is SyrkUpperTrans's reduceRows kernel.
func syrkRows(job rowJob, lo, hi int, dst *mat.Dense) {
	syrkRange(job.alpha, job.a, lo, hi, dst)
}

// syrkRange accumulates dst += alpha·A(lo:hi,:)ᵀ·A(lo:hi,:) (upper
// triangle only). Four rows of A are consumed per pass so each touched
// accumulator element amortizes four multiply-adds (register blocking);
// for wide n the columns are additionally tiled so the active accumulator
// segment stays cache resident.
func syrkRange(alpha float64, a *mat.Dense, lo, hi int, dst *mat.Dense) {
	n := a.Cols
	if n <= syrkJBlock {
		syrkTile(alpha, a, 0, n, lo, hi, dst)
		return
	}
	for j0 := 0; j0 < n; j0 += syrkJBlock {
		syrkTile(alpha, a, j0, min(j0+syrkJBlock, n), lo, hi, dst)
	}
}

// syrkTile accumulates the columns [j0, j1) of the upper triangle of
// dst += alpha·AᵀA over summation rows [lo, hi).
//
//repolint:hotpath
func syrkTile(alpha float64, a *mat.Dense, j0, j1, lo, hi int, dst *mat.Dense) {
	l := lo
	for ; l+4 <= hi; l += 4 {
		r0 := a.Data[l*a.Stride : l*a.Stride+j1]
		r1 := a.Data[(l+1)*a.Stride : (l+1)*a.Stride+j1]
		r2 := a.Data[(l+2)*a.Stride : (l+2)*a.Stride+j1]
		r3 := a.Data[(l+3)*a.Stride : (l+3)*a.Stride+j1]
		for i := 0; i < j1; i++ {
			v0 := alpha * r0[i]
			v1 := alpha * r1[i]
			v2 := alpha * r2[i]
			v3 := alpha * r3[i]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			drow := dst.Data[i*dst.Stride : i*dst.Stride+j1]
			for j := max(i, j0); j < j1; j++ {
				drow[j] += v0*r0[j] + v1*r1[j] + v2*r2[j] + v3*r3[j]
			}
		}
	}
	for ; l < hi; l++ {
		arow := a.Data[l*a.Stride : l*a.Stride+j1]
		for i := 0; i < j1; i++ {
			av := alpha * arow[i]
			if av == 0 {
				continue
			}
			drow := dst.Data[i*dst.Stride : i*dst.Stride+j1]
			for j := max(i, j0); j < j1; j++ {
				drow[j] += av * arow[j]
			}
		}
	}
}

// SymmetrizeFromUpper copies the strict upper triangle of w onto the strict
// lower triangle.
func SymmetrizeFromUpper(w *mat.Dense) {
	if w.Rows != w.Cols {
		panic(fmt.Sprintf("blas: SymmetrizeFromUpper on %d×%d", w.Rows, w.Cols))
	}
	for i := 0; i < w.Rows; i++ {
		for j := i + 1; j < w.Cols; j++ {
			w.Data[j*w.Stride+i] = w.Data[i*w.Stride+j]
		}
	}
}
