package blas

import (
	"math"
	"math/bits"

	"repro/mat"
)

// The inner loops that hold the time of every GEMM, SYRK, TRMM, B·R⁻¹
// and R⁻ᵀ·B solve, of the fused pass's column gather and of the sparse
// sketch's sign-matrix product, written once in Go. They fix the
// package's one rounding rule: every Level-3 output element is a single
// fused multiply-add chain over its summation index t, in ascending
// order,
//
//	Gram, SYRK, Aᵀ·B:          c = fma(a[t][i], b[t][j], c)
//	A·B, TRMM, B·R⁻¹, R⁻ᵀ·B:   c = fma(−v[i][t], b[t][j], c),   then x = c·(1/R[j][j]) for a solve
//
// the row scatter is one fma per element, the sign-matrix product one
// fma chain per element over its row's set bits in ascending order, and
// the gather moves entries unchanged. Loads and stores are exact, so an
// element's bits depend only on where its chain starts (the slot
// partition of ReduceRows) and never on tile shapes, row grouping or
// blocking. On amd64 (without the purego build tag) these loops run
// assembly instead (quad_amd64.s), which performs the same chains: the
// tiles as 8-row zmm tiles up to 24 columns wide where the CPU has
// AVX512F and AVX512VL and the OS saves the ZMM state, else as 4-row
// ymm tiles up to 12 wide where it has AVX2 and FMA, chosen once at
// start-up; the row scatter on ymm, the sign-matrix product on zmm or
// ymm, and the gather on zmm only (zmm VGATHERQPD). Anything else runs
// these loops. See DESIGN.md §10.

// tileRows is the row count of a tile: 8 on the zmm tiles, 4 otherwise.
// maxTileRows bounds it, for the drivers' packed operands.
func tileRows() int {
	if useAVX512 {
		return 8
	}
	return 4
}

const maxTileRows = 8

// tileWidth is the column count of the next tile when rem columns are
// left: at most three vectors, 24 on the zmm tiles and 12 otherwise, and
// no sliver at the end: on zmm a rest of 25–32 columns splits as 16 +
// the rest (at least nine), on ymm 16 as 8 + 8.
func tileWidth(rem int) int {
	if useAVX512 {
		if rem > 24 && rem <= 32 {
			return 16
		}
		return min(rem, 24)
	}
	if rem == 16 {
		return 8
	}
	return min(rem, 12)
}

// tileTNGo is the Aᵀ·B tile: for the mr×nc tile of C at c (row stride
// ldc), with A's entries (t, s) at a[t·lda+s] and B's row t at b[t·ldb:],
//
//	C[s][j] = fma(A[t][s], B[t][j], C[s][j]),   t = 0, 1, …, k−1,
//
// skipping the entries j < s when upper is set.
//
//repolint:hotpath
func tileTNGo(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, k, mr, nc int, upper bool) {
	for t := 0; t < k; t++ {
		at := a[t*lda : t*lda+mr]
		bt := b[t*ldb : t*ldb+nc]
		for s, av := range at {
			j0 := 0
			if upper {
				j0 = min(s, nc)
			}
			bs := bt[j0:]
			cs := c[s*ldc+j0 : s*ldc+nc]
			cs = cs[:len(bs)]
			for j, bv := range bs {
				cs[j] = math.FMA(av, bv, cs[j])
			}
		}
	}
}

// tileNNGo is the A·B tile: for the mr×nc tile of C at c, with V's row s
// at v[s·ldv:] and B's row t at b[t·ldb:],
//
//	C[s][j] = fma(−V[s][t], B[t][j], C[s][j]),   t = 0, 1, …, k−1.
//
//repolint:hotpath
func tileNNGo(c []float64, ldc int, v []float64, ldv int, b []float64, ldb int, k, mr, nc int) {
	for t := 0; t < k; t++ {
		bt := b[t*ldb : t*ldb+nc]
		for s := 0; s < mr; s++ {
			vs := -v[s*ldv+t]
			cs := c[s*ldc : s*ldc+nc]
			cs = cs[:len(bt)]
			for j, bv := range bt {
				cs[j] = math.FMA(vs, bv, cs[j])
			}
		}
	}
}

// trsmColsGo solves columns [j0, j1) of the mr rows of X at x (row
// stride ldx) against the upper triangular R, whose diagonal reciprocals
// are inv, given columns t < j0 already solved:
//
//	x[j] = fma(−x[t], R[t][j], x[j]),   t = 0, 1, …, j−1,   then x[j] = x[j]·inv[j].
//
//repolint:hotpath
func trsmColsGo(x []float64, ldx, mr int, r []float64, ldr int, inv []float64, j0, j1 int) {
	for s := 0; s < mr; s++ {
		xs := x[s*ldx : s*ldx+j1]
		for t := 0; t < j1; t++ {
			if t >= j0 {
				xs[t] *= inv[t]
			}
			vt := -xs[t]
			rt := r[t*ldr : t*ldr+j1]
			for j := max(j0, t+1); j < j1; j++ {
				xs[j] = math.FMA(vt, rt[j], xs[j])
			}
		}
	}
}

// scatterRowsGo adds weighted copies of one row into accumulator rows:
//
//	acc[t[k]][j] = fma(w[k], row[j], acc[t[k]][j]),   k = 0, 1, …, len(t)−1 in order, 0 ≤ j < len(row),
//
// with accumulator row t at acc[t·accStride:]. Repeated targets are
// allowed; each takes its update in turn. acc must not overlap row.
//
//repolint:hotpath
func scatterRowsGo(acc []float64, accStride int, row []float64, t []int, w []float64) {
	n := len(row)
	for k, tk := range t {
		wk := w[k]
		dst := acc[tk*accStride : tk*accStride+n]
		for j, v := range row {
			dst[j] = math.FMA(wk, v, dst[j])
		}
	}
}

// signRowsGo adds the product of a sparse sign matrix S, held as two
// bit masks a row, and the rows of B into the rows of C: for output row
// t < len(rows) and each set bit i of rows[t], ascending,
//
//	C[t][j] = fma(w[neg[t]>>i & 1], B[i][j], C[t][j]),   0 ≤ j < n,
//
// with C's row t at c[t·ldc:] and B's row i at b[i·ldb:]. c must not
// overlap b.
//
//repolint:hotpath
func signRowsGo(c []float64, ldc int, b []float64, ldb, n int, rows, neg []uint64, w *[2]float64) {
	for t, m := range rows {
		ct := c[t*ldc : t*ldc+n]
		nt := neg[t]
		for ; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			wi := w[nt>>i&1]
			bi := b[i*ldb : i*ldb+n]
			bi = bi[:len(ct)]
			for j, v := range bi {
				ct[j] = math.FMA(wi, v, ct[j])
			}
		}
	}
}

// gatherColsGo sets columns [p0, n) of rows [lo, hi) of dst, n =
// dst.Cols, to the same rows of src with their columns taken through
// the permutation perm:
//
//	dst(i, j) = src(i, perm[j]),   p0 ≤ j < n,
//
// with dst src itself or not overlapping it. In place each row's tail
// is first copied to the scratch row tmp (n long), so no entry is read
// after it has been overwritten.
//
//repolint:hotpath
func gatherColsGo(dst, src *mat.Dense, perm mat.Perm, p0, lo, hi int, tmp []float64) {
	n := dst.Cols
	for i := lo; i < hi; i++ {
		d := dst.Data[i*dst.Stride : i*dst.Stride+n]
		s := src.Data[i*src.Stride : i*src.Stride+n]
		if dst == src {
			copy(tmp[p0:n], s[p0:])
			s = tmp[:n]
		}
		for j := p0; j < n; j++ {
			d[j] = s[perm[j]]
		}
	}
}
