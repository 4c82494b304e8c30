//go:build !amd64 || purego

package blas

// useAVX2 is false: this build has no assembly kernels. That is so off
// amd64 and under the purego tag.
var useAVX2 = false

// FMAPeak reports false: this build has no assembly loop to measure.
func FMAPeak(iters int) bool { return false }

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
