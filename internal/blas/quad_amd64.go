//go:build amd64 && !purego

package blas

// useAVX2 reports whether syrkQuad, gemmQuad and scatterRows run the
// AVX2 assembly:
// the CPU has AVX2 and the OS saves the YMM registers. Detected once.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 checks CPUID for AVX2 and XGETBV for OS support of the YMM
// state.
func cpuHasAVX2() bool

// syrkQuadAVX2 is syrkQuadGo on raw row pointers: acc points at
// accumulator row 0 and b at the quad's first row, strides in elements.
//
//go:noescape
func syrkQuadAVX2(acc *float64, accStride int, b *float64, bStride int, n, iLo, iHi int)

// gemmQuadAVX2 is gemmQuadGo on raw row pointers: x points at the quad's
// first row and r at the first of the four rows of R.
//
//go:noescape
func gemmQuadAVX2(x *float64, xStride int, r *float64, rStride int, v *[16]float64, j0, n int)

// scatterRowsAVX2 is scatterRowsGo on raw pointers: acc points at
// accumulator row 0, row at the n source entries, and t and w at the
// count targets and weights.
//
//go:noescape
func scatterRowsAVX2(acc *float64, accStride int, row *float64, n int, t *int, w *float64, count int)

// syrkQuad runs the quad SYRK update (see syrkQuadGo). The assembly does
// no bounds checks, so it runs only when every element it touches is
// provably inside acc and b; any other call goes to the Go loop, whose
// bounds checks report it.
//
//repolint:hotpath
func syrkQuad(acc []float64, accStride int, b []float64, bStride, n, iLo, iHi int) {
	if useAVX2 && 0 <= iLo && iLo < iHi && iHi <= n && accStride >= 0 && bStride >= 0 &&
		len(acc) >= (iHi-1)*accStride+n && len(b) >= 3*bStride+n {
		syrkQuadAVX2(&acc[0], accStride, &b[0], bStride, n, iLo, iHi)
		return
	}
	syrkQuadGo(acc, accStride, b, bStride, n, iLo, iHi)
}

// gemmQuad runs the rank-4 quad update (see gemmQuadGo), guarded
// like syrkQuad.
//
//repolint:hotpath
func gemmQuad(x []float64, xStride int, r []float64, rStride int, v *[16]float64, j0, n int) {
	if useAVX2 && 0 <= j0 && j0 < n && xStride >= 0 && rStride >= 0 &&
		len(x) >= 3*xStride+n && len(r) >= 3*rStride+n {
		gemmQuadAVX2(&x[0], xStride, &r[0], rStride, v, j0, n)
		return
	}
	gemmQuadGo(x, xStride, r, rStride, v, j0, n)
}

// scatterRows runs the weighted row scatter (see scatterRowsGo), guarded
// like syrkQuad: the assembly runs only when every target row lies inside
// acc, so an out-of-range target reaches the Go loop's bounds checks.
//
//repolint:hotpath
func scatterRows(acc []float64, accStride int, row []float64, t []int, w []float64) {
	n := len(row)
	if useAVX2 && n > 0 && len(t) > 0 && len(w) >= len(t) && accStride >= 0 && n <= len(acc) {
		lo, hi := t[0], t[0]
		for _, tk := range t[1:] {
			lo, hi = min(lo, tk), max(hi, tk)
		}
		// hi·accStride + n ≤ len(acc), without overflowing the product.
		if lo >= 0 && (accStride == 0 || hi <= (len(acc)-n)/accStride) {
			scatterRowsAVX2(&acc[0], accStride, &row[0], n, &t[0], &w[0], len(t))
			return
		}
	}
	scatterRowsGo(acc, accStride, row, t, w)
}
