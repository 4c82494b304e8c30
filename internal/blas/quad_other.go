//go:build !amd64 || purego

package blas

// useAVX2 is false: this build has no assembly kernels. That is so off
// amd64 and under the purego tag.
var useAVX2 = false

// syrkQuad runs the quad SYRK update (see syrkQuadGo).
//
//repolint:hotpath
func syrkQuad(acc []float64, accStride int, b []float64, bStride, n, iLo, iHi int) {
	syrkQuadGo(acc, accStride, b, bStride, n, iLo, iHi)
}

// gemmQuad runs the rank-4 quad update (see gemmQuadGo).
//
//repolint:hotpath
func gemmQuad(x []float64, xStride int, r []float64, rStride int, v *[16]float64, j0, n int) {
	gemmQuadGo(x, xStride, r, rStride, v, j0, n)
}

// scatterRows runs the weighted row scatter (see scatterRowsGo).
//
//repolint:hotpath
func scatterRows(acc []float64, accStride int, row []float64, t []int, w []float64) {
	scatterRowsGo(acc, accStride, row, t, w)
}
