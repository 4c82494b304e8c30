//go:build !amd64 || purego

package blas

import "repro/mat"

// useAVX2 and useAVX512 are false: this build has no assembly kernels.
// That is so off amd64 and under the purego tag.
var useAVX2, useAVX512 = false, false

// HasAVX512DQ reports false: this build has no assembly kernels.
func HasAVX512DQ() bool { return false }

// FMAPeak reports 0: this build has no assembly loop to measure.
func FMAPeak(iters int) (lanes int) { return 0 }

// tileTN runs the Aᵀ·B tile (see tileTNGo).
//
//repolint:hotpath
func tileTN(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, k, mr, nc int, upper bool) {
	tileTNGo(c, ldc, a, lda, b, ldb, k, mr, nc, upper)
}

// tileNN runs the A·B tile (see tileNNGo).
//
//repolint:hotpath
func tileNN(c []float64, ldc int, v []float64, ldv int, b []float64, ldb int, k, mr, nc int) {
	tileNNGo(c, ldc, v, ldv, b, ldb, k, mr, nc)
}

// trsmTile solves columns [j0, j0+nc) of mr rows of X (see trsmColsGo).
//
//repolint:hotpath
func trsmTile(x []float64, ldx, mr int, r []float64, ldr int, inv []float64, j0, nc int) {
	trsmColsGo(x, ldx, mr, r, ldr, inv, j0, j0+nc)
}

// scatterRows runs the weighted row scatter (see scatterRowsGo).
//
//repolint:hotpath
func scatterRows(acc []float64, accStride int, row []float64, t []int, w []float64) {
	scatterRowsGo(acc, accStride, row, t, w)
}

// signRows runs the sign-matrix product (see signRowsGo).
//
//repolint:hotpath
func signRows(c []float64, ldc int, b []float64, ldb, n int, rows, neg []uint64, w *[2]float64) {
	signRowsGo(c, ldc, b, ldb, n, rows, neg, w)
}

// gatherCols sets columns [p0, n) of rows [lo, hi) of dst through perm
// (see gatherColsGo).
//
//repolint:hotpath
func gatherCols(dst, src *mat.Dense, perm mat.Perm, p0, lo, hi int, tmp []float64) {
	gatherColsGo(dst, src, perm, p0, lo, hi, tmp)
}
