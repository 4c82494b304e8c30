//go:build amd64 && !purego

package blas

// useAVX2 reports whether the tiles and the row scatter run the assembly:
// the CPU has AVX2 and FMA and the OS saves the YMM registers. Detected
// once.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 checks CPUID for AVX2 and FMA and XGETBV for OS support of
// the YMM state.
func cpuHasAVX2() bool

// tileTNAVX2 is tileTNGo on raw pointers for a 4-row tile, nc ∈ {4, 8, 12}
// and k ≥ 1.
//
//go:noescape
func tileTNAVX2(c *float64, ldc int, a *float64, lda int, b *float64, ldb int, k, nc int, upper bool)

// tileNNAVX2 is tileNNGo on raw pointers for a 4-row tile, nc ∈ {4, 8, 12}
// and k ≥ 1.
//
//go:noescape
func tileNNAVX2(c *float64, ldc int, v *float64, ldv int, b *float64, ldb int, k, nc int)

// trsmTileAVX2 is trsmColsGo on raw pointers for four rows and columns
// [j0, j0+nc), nc ∈ {4, 8, 12}: x points at row 0, column 0.
//
//go:noescape
func trsmTileAVX2(x *float64, ldx int, r *float64, ldr int, inv *float64, j0, nc int)

// scatterRowsAVX2 is scatterRowsGo on raw pointers: acc points at
// accumulator row 0, row at the n source entries, and t and w at the
// count targets and weights.
//
//go:noescape
func scatterRowsAVX2(acc *float64, accStride int, row *float64, n int, t *int, w *float64, count int)

// fmaPeakAVX2 runs iters ≥ 1 steps of the FMAPeak loop.
//
//go:noescape
func fmaPeakAVX2(iters int)

// FMAPeak runs iters steps of 12 independent 4-wide fma chains, 96 flops
// a step, on the calling goroutine: the single-core ceiling the
// assembly tiles are read against. It reports false, running nothing,
// where the tiles do not run (see useAVX2).
func FMAPeak(iters int) bool {
	if !useAVX2 || iters < 1 {
		return false
	}
	fmaPeakAVX2(iters)
	return true
}

// The dispatchers run the assembly on a 4-row tile's first nc&^3
// columns, and only when every element it touches is provably inside
// the slices; the Go loop takes the 1–3 columns left and any other call,
// and its bounds checks report a bad one. Both perform the same chains,
// so the split changes no bit.

// tileTN runs the Aᵀ·B tile (see tileTNGo).
//
//repolint:hotpath
func tileTN(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, k, mr, nc int, upper bool) {
	n4 := nc &^ 3
	if useAVX2 && mr == 4 && k > 0 && n4 > 0 && n4 <= 12 && ldc >= 0 && lda >= 0 && ldb >= 0 &&
		len(c) >= 3*ldc+n4 && len(a) >= (k-1)*lda+4 && len(b) >= (k-1)*ldb+n4 {
		tileTNAVX2(&c[0], ldc, &a[0], lda, &b[0], ldb, k, n4, upper)
		if n4 == nc {
			return
		}
		c, b, nc, upper = c[n4:], b[n4:], nc-n4, false
	}
	tileTNGo(c, ldc, a, lda, b, ldb, k, mr, nc, upper)
}

// tileNN runs the A·B tile (see tileNNGo).
//
//repolint:hotpath
func tileNN(c []float64, ldc int, v []float64, ldv int, b []float64, ldb int, k, mr, nc int) {
	n4 := nc &^ 3
	if useAVX2 && mr == 4 && k > 0 && n4 > 0 && n4 <= 12 && ldc >= 0 && ldv >= 0 && ldb >= 0 &&
		len(c) >= 3*ldc+n4 && len(v) >= 3*ldv+k && len(b) >= (k-1)*ldb+n4 {
		tileNNAVX2(&c[0], ldc, &v[0], ldv, &b[0], ldb, k, n4)
		if n4 == nc {
			return
		}
		c, b, nc = c[n4:], b[n4:], nc-n4
	}
	tileNNGo(c, ldc, v, ldv, b, ldb, k, mr, nc)
}

// trsmTile solves columns [j0, j0+nc) of mr rows of X (see trsmColsGo).
//
//repolint:hotpath
func trsmTile(x []float64, ldx, mr int, r []float64, ldr int, inv []float64, j0, nc int) {
	n4 := nc &^ 3
	if j1 := j0 + n4; useAVX2 && mr == 4 && n4 > 0 && n4 <= 12 && j0 >= 0 && ldx >= 0 && ldr >= 0 &&
		len(x) >= 3*ldx+j1 && len(r) >= (j1-1)*ldr+j1 && len(inv) >= j1 {
		trsmTileAVX2(&x[0], ldx, &r[0], ldr, &inv[0], j0, n4)
		j0, nc = j1, nc-n4
		if nc == 0 {
			return
		}
	}
	trsmColsGo(x, ldx, mr, r, ldr, inv, j0, j0+nc)
}

// scatterRows runs the weighted row scatter (see scatterRowsGo), guarded
// like the tiles: the assembly runs only when every target row lies
// inside acc, so an out-of-range target reaches the Go loop's bounds
// checks.
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
