//go:build amd64 && !purego

package blas

import (
	"math/bits"

	"repro/mat"
)

// useAVX2 reports whether the tiles and the row scatter run the assembly:
// the CPU has AVX2, FMA and BMI1 (the sign-matrix product's bit scans)
// and the OS saves the YMM registers. Detected once.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 checks CPUID for AVX2, FMA and BMI1 and XGETBV for OS
// support of the YMM state.
func cpuHasAVX2() bool

// useAVX512 reports whether the tiles run their AVX-512 forms: on top of
// useAVX2, the CPU has AVX512F and AVX512VL and the OS saves the opmask
// and ZMM registers. Detected once.
var useAVX512 = useAVX2 && cpuHasAVX512()

// cpuHasAVX512 checks CPUID for AVX512F and AVX512VL and XGETBV for OS
// support of the opmask and ZMM state.
func cpuHasAVX512() bool

// useAVX512DQ reports whether zmm kernels may also use AVX512DQ's
// 64-bit lane multiply (VPMULLQ): on top of useAVX512, the CPU has
// AVX512DQ. Detected once.
var useAVX512DQ = useAVX512 && cpuHasAVX512DQ()

// cpuHasAVX512DQ checks CPUID for AVX512DQ; call it only where
// cpuHasAVX512 holds.
func cpuHasAVX512DQ() bool

// HasAVX512DQ reports whether this build and CPU run zmm kernels with
// 64-bit integer lane multiplies (see useAVX512DQ). Packages with
// assembly of their own take their dispatch flag from here, so the
// machine is probed once.
func HasAVX512DQ() bool { return useAVX512DQ }

// tileTNAVX512 is tileTNGo on raw pointers for an 8-row tile,
// 1 ≤ nc ≤ 24 and k ≥ 1.
//
//go:noescape
func tileTNAVX512(c *float64, ldc int, a *float64, lda int, b *float64, ldb int, k, nc int, upper bool)

// tileNNAVX512 is tileNNGo on raw pointers for an 8-row tile,
// 1 ≤ nc ≤ 24 and k ≥ 1.
//
//go:noescape
func tileNNAVX512(c *float64, ldc int, v *float64, ldv int, b *float64, ldb int, k, nc int)

// trsmTileAVX512 is trsmColsGo on raw pointers for eight rows and
// columns [j0, j0+nc), 1 ≤ nc ≤ 24: x points at row 0, column 0.
//
//go:noescape
func trsmTileAVX512(x *float64, ldx int, r *float64, ldr int, inv *float64, j0, nc int)

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

// gatherRowsAVX512 is the column gather of gatherColsGo on raw pointers
// for rows ≥ 1 rows and 1 ≤ w ≤ gatherMaxCols columns: dst points at
// row 0 of the w destination columns, src at row 0, column 0, and idx at
// their w source columns. dst may be src.
//
//go:noescape
func gatherRowsAVX512(dst *float64, ldd int, src *float64, lds int, idx *int, w, rows int)

// gatherMaxCols is the widest gather gatherRowsAVX512 takes in one call:
// eight zmm vectors, every one of a row's entries held in registers
// before any is stored.
const gatherMaxCols = 64

// scatterRowsAVX2 is scatterRowsGo on raw pointers: acc points at
// accumulator row 0, row at the n source entries, and t and w at the
// count targets and weights.
//
//go:noescape
func scatterRowsAVX2(acc *float64, accStride int, row *float64, n int, t *int, w *float64, count int)

// signRowsAVX512 and signRowsAVX2 are signRowsGo on raw pointers for
// count ≥ 1 output rows and n ≥ 1 columns: c and b point at row 0 of C
// and B, rows and neg at the count masks, and w at the two weights.
//
//go:noescape
func signRowsAVX512(c *float64, ldc int, b *float64, ldb, n int, rows, neg *uint64, w *[2]float64, count int)

//go:noescape
func signRowsAVX2(c *float64, ldc int, b *float64, ldb, n int, rows, neg *uint64, w *[2]float64, count int)

// fmaPeakAVX2 and fmaPeakAVX512 run iters ≥ 1 steps of the FMAPeak
// loop on ymm and zmm registers.
//
//go:noescape
func fmaPeakAVX2(iters int)

//go:noescape
func fmaPeakAVX512(iters int)

// FMAPeak runs iters steps of 12 independent fma chains on the calling
// goroutine, on the widest registers the tiles run (see useAVX512):
// the single-core ceiling the assembly tiles are read against. It
// reports the lanes of one chain, 8 on zmm and 4 on ymm, so a step is
// 24·lanes flops; where the tiles do not run (see useAVX2) it reports 0
// and runs nothing.
func FMAPeak(iters int) (lanes int) {
	switch {
	case iters < 1 || !useAVX2:
		return 0
	case useAVX512:
		fmaPeakAVX512(iters)
		return 8
	default:
		fmaPeakAVX2(iters)
		return 4
	}
}

// The dispatchers run the zmm kernel on a whole 8-row tile of up to 24
// columns, else the ymm kernel on a 4-row tile's first nc&^3 columns, at
// most 12 a call, and either only when every element it touches is
// provably inside the slices; the Go loop takes the 1–3 columns the ymm
// kernel leaves and any other call (ragged rows at the end of a range
// among them), and its bounds checks report a bad one. All of them
// perform the same chains, so the split changes no bit.

// tileTN runs the Aᵀ·B tile (see tileTNGo).
//
//repolint:hotpath
func tileTN(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, k, mr, nc int, upper bool) {
	if useAVX512 && mr == 8 && k > 0 && nc > 0 && nc <= 24 && ldc >= 0 && lda >= 0 && ldb >= 0 &&
		len(c) >= 7*ldc+nc && len(a) >= (k-1)*lda+8 && len(b) >= (k-1)*ldb+nc {
		tileTNAVX512(&c[0], ldc, &a[0], lda, &b[0], ldb, k, nc, upper)
		return
	}
	for n4 := min(nc&^3, 12); useAVX2 && mr == 4 && k > 0 && n4 > 0 && ldc >= 0 && lda >= 0 && ldb >= 0 &&
		len(c) >= 3*ldc+n4 && len(a) >= (k-1)*lda+4 && len(b) >= (k-1)*ldb+n4; n4 = min(nc&^3, 12) {
		tileTNAVX2(&c[0], ldc, &a[0], lda, &b[0], ldb, k, n4, upper)
		c, b, nc, upper = c[n4:], b[n4:], nc-n4, false
	}
	if nc > 0 {
		tileTNGo(c, ldc, a, lda, b, ldb, k, mr, nc, upper)
	}
}

// tileNN runs the A·B tile (see tileNNGo).
//
//repolint:hotpath
func tileNN(c []float64, ldc int, v []float64, ldv int, b []float64, ldb int, k, mr, nc int) {
	if useAVX512 && mr == 8 && k > 0 && nc > 0 && nc <= 24 && ldc >= 0 && ldv >= 0 && ldb >= 0 &&
		len(c) >= 7*ldc+nc && len(v) >= 7*ldv+k && len(b) >= (k-1)*ldb+nc {
		tileNNAVX512(&c[0], ldc, &v[0], ldv, &b[0], ldb, k, nc)
		return
	}
	for n4 := min(nc&^3, 12); useAVX2 && mr == 4 && k > 0 && n4 > 0 && ldc >= 0 && ldv >= 0 && ldb >= 0 &&
		len(c) >= 3*ldc+n4 && len(v) >= 3*ldv+k && len(b) >= (k-1)*ldb+n4; n4 = min(nc&^3, 12) {
		tileNNAVX2(&c[0], ldc, &v[0], ldv, &b[0], ldb, k, n4)
		c, b, nc = c[n4:], b[n4:], nc-n4
	}
	if nc > 0 {
		tileNNGo(c, ldc, v, ldv, b, ldb, k, mr, nc)
	}
}

// trsmTile solves columns [j0, j0+nc) of mr rows of X (see trsmColsGo).
//
//repolint:hotpath
func trsmTile(x []float64, ldx, mr int, r []float64, ldr int, inv []float64, j0, nc int) {
	if j1 := j0 + nc; useAVX512 && mr == 8 && nc > 0 && nc <= 24 && j0 >= 0 && ldx >= 0 && ldr >= 0 &&
		len(x) >= 7*ldx+j1 && len(r) >= (j1-1)*ldr+j1 && len(inv) >= j1 {
		trsmTileAVX512(&x[0], ldx, &r[0], ldr, &inv[0], j0, nc)
		return
	}
	for n4 := min(nc&^3, 12); useAVX2 && mr == 4 && n4 > 0 && j0 >= 0 && ldx >= 0 && ldr >= 0 &&
		len(x) >= 3*ldx+j0+n4 && len(r) >= (j0+n4-1)*ldr+j0+n4 && len(inv) >= j0+n4; n4 = min(nc&^3, 12) {
		trsmTileAVX2(&x[0], ldx, &r[0], ldr, &inv[0], j0, n4)
		j0, nc = j0+n4, nc-n4
	}
	if nc > 0 {
		trsmColsGo(x, ldx, mr, r, ldr, inv, j0, j0+nc)
	}
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

// signRows runs the sign-matrix product (see signRowsGo), on zmm or
// ymm like the tiles, only when every row it reads and every element it
// writes is provably inside the slices: the output rows lie inside c
// and the highest bit set in any mask names a row inside b. Else the Go
// loop runs, and its bounds checks report a bad bit.
//
//repolint:hotpath
func signRows(c []float64, ldc int, b []float64, ldb, n int, rows, neg []uint64, w *[2]float64) {
	var all uint64
	for _, m := range rows {
		all |= m
	}
	if count := len(rows); useAVX2 && count > 0 && all != 0 && len(neg) >= count && n > 0 &&
		rowsInside(c, ldc, n, 0, count) && rowsInside(b, ldb, n, 0, 64-bits.LeadingZeros64(all)) {
		if useAVX512 {
			signRowsAVX512(&c[0], ldc, &b[0], ldb, n, &rows[0], &neg[0], w, count)
		} else {
			signRowsAVX2(&c[0], ldc, &b[0], ldb, n, &rows[0], &neg[0], w, count)
		}
		return
	}
	signRowsGo(c, ldc, b, ldb, n, rows, neg, w)
}

// gatherCols sets columns [p0, n) of rows [lo, hi) of dst through perm
// (see gatherColsGo). The zmm gather takes the call only when every
// index perm[p0:n] lies in [0, n) and rows lo..hi−1 lie inside both dst's
// and src's slices; else the Go loop runs, and its bounds checks report
// a bad index or row. Out of place it takes the columns gatherMaxCols at
// a time; in place it takes a tail of up to gatherMaxCols columns, which
// it holds in registers, and leaves a wider one to the Go loop and its
// scratch row. Loads and stores are exact, so the paths agree bit for
// bit.
//
//repolint:hotpath
func gatherCols(dst, src *mat.Dense, perm mat.Perm, p0, lo, hi int, tmp []float64) {
	n := dst.Cols
	if !useAVX512 || (dst == src && n-p0 > gatherMaxCols) || p0 < 0 || p0 >= n || len(perm) < n ||
		!rowsInside(dst.Data, dst.Stride, n, lo, hi) || !rowsInside(src.Data, src.Stride, n, lo, hi) {
		gatherColsGo(dst, src, perm, p0, lo, hi, tmp)
		return
	}
	for _, v := range perm[p0:n] {
		if uint(v) >= uint(n) {
			gatherColsGo(dst, src, perm, p0, lo, hi, tmp)
			return
		}
	}
	for j := p0; j < n; j += gatherMaxCols {
		gatherRowsAVX512(&dst.Data[lo*dst.Stride+j], dst.Stride, &src.Data[lo*src.Stride], src.Stride,
			&perm[j], min(gatherMaxCols, n-j), hi-lo)
	}
}

// rowsInside reports whether rows [lo, hi), hi > lo, of n ≥ 1 elements
// at stride ld lie inside data, without overflowing the products.
func rowsInside(data []float64, ld, n, lo, hi int) bool {
	return lo >= 0 && hi > lo && ld >= 0 && n <= len(data) && (ld == 0 || hi-1 <= (len(data)-n)/ld)
}
