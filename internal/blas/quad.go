package blas

import "math"

// The inner loops that hold the time of every GEMM, SYRK and right-side
// TRSM and of the sparse sketch, written once in Go. They fix the
// package's one rounding rule: every Level-3 output element is a single
// fused multiply-add chain over its summation index t, in ascending
// order,
//
//	Gram, SYRK, Aᵀ·B:   c = fma(a[t][i], b[t][j], c)
//	A·B, right TRSM:     c = fma(−v[i][t], b[t][j], c),   then x[j] = c·(1/R[j][j])
//
// and the row scatter is one fma per element. Loads and stores are
// exact, so an element's bits depend only on where its chain starts
// (the slot partition of reduceRows) and never on tile shapes, row
// grouping or blocking. On amd64 with AVX2 and FMA (and without the
// purego build tag) the tiles run register-tiled assembly instead
// (quad_amd64.s), which performs the same chains; anything else runs
// these loops. See DESIGN.md §10.

// tileWidth is the column count of the next tile when rem columns are
// left: 12 (three vectors), except that 16 splits as 8 + 8 so no tile is
// narrower than two vectors.
func tileWidth(rem int) int {
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
