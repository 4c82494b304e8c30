package blas

// The three inner loops that hold the time of every GEMM, SYRK and
// right-side TRSM and of the sparse sketch, written once in Go. These
// loops are the reference: on amd64 with AVX2 (and without the purego
// build tag) syrkQuad, gemmQuad and scatterRows run an assembly version
// instead (quad_amd64.s), which must reproduce them bit for bit. It does
// so by keeping their arithmetic exactly: every output element gets the
// same separate multiplies and adds (no FMA), associated the way Go
// evaluates the expressions below, ((a + b) + c) + d, and the vector
// lanes run over independent output columns j, so a lane computes
// precisely what one iteration of the j loop computes. Anything else
// (another build, another CPU) runs these loops. See DESIGN.md §10.

// syrkQuadGo accumulates the Gram contribution of one 4-row quad of B
// into accumulator rows [iLo, iHi):
//
//	acc[i][j] += ((v0·w0 + v1·w1) + v2·w2) + v3·w3,   iLo ≤ i < iHi, i ≤ j < n,
//
// with vt = B[t][i] and wt = B[t][j]. b holds the quad's four rows at
// stride bStride, acc the accumulator rows at stride accStride. Output
// rows are paired so the quad's four source rows are loaded once per two
// accumulator rows: 32 flops per 8 memory operations in the inner loop.
// iLo must be even (a row-pair boundary); iHi is even or n.
//
//repolint:hotpath
func syrkQuadGo(acc []float64, accStride int, b []float64, bStride, n, iLo, iHi int) {
	r0 := b[:n]
	r1 := b[bStride : bStride+n]
	r2 := b[2*bStride : 2*bStride+n]
	r3 := b[3*bStride : 3*bStride+n]
	i := iLo
	for ; i+2 <= iHi; i += 2 {
		di := acc[i*accStride : i*accStride+n]
		di1 := acc[(i+1)*accStride : (i+1)*accStride+n]
		v00, v10, v20, v30 := r0[i], r1[i], r2[i], r3[i]
		v01, v11, v21, v31 := r0[i+1], r1[i+1], r2[i+1], r3[i+1]
		di[i] += v00*v00 + v10*v10 + v20*v20 + v30*v30
		di[i+1] += v00*v01 + v10*v11 + v20*v21 + v30*v31
		di1[i+1] += v01*v01 + v11*v11 + v21*v21 + v31*v31
		for j := i + 2; j < n; j++ {
			w0, w1, w2, w3 := r0[j], r1[j], r2[j], r3[j]
			di[j] += v00*w0 + v10*w1 + v20*w2 + v30*w3
			di1[j] += v01*w0 + v11*w1 + v21*w2 + v31*w3
		}
	}
	if i < iHi {
		di := acc[i*accStride : i*accStride+n]
		v0, v1, v2, v3 := r0[i], r1[i], r2[i], r3[i]
		for j := i; j < n; j++ {
			di[j] += v0*r0[j] + v1*r1[j] + v2*r2[j] + v3*r3[j]
		}
	}
}

// gemmQuadGo is the rank-4 update of one 4-row quad of X:
//
//	x[s][j] -= ((v[4s]·w0 + v[4s+1]·w1) + v[4s+2]·w2) + v[4s+3]·w3,   j0 ≤ j < n,
//
// with wt = R[t][j] for the four rows of R held in r at stride rStride,
// and x the quad's four rows at stride xStride. v holds a 4×4 block row
// by row: the quad's solved diagonal panel in the panel TRSM, and −alpha
// times a block of A (or Aᵀ) in GEMM, where subtracting the negated
// product adds exactly alpha·A·B. 32 flops per 12 memory operations.
//
//repolint:hotpath
func gemmQuadGo(x []float64, xStride int, r []float64, rStride int, v *[16]float64, j0, n int) {
	x0 := x[:n]
	x1 := x[xStride : xStride+n]
	x2 := x[2*xStride : 2*xStride+n]
	x3 := x[3*xStride : 3*xStride+n]
	r0 := r[:n]
	r1 := r[rStride : rStride+n]
	r2 := r[2*rStride : 2*rStride+n]
	r3 := r[3*rStride : 3*rStride+n]
	v00, v01, v02, v03 := v[0], v[1], v[2], v[3]
	v10, v11, v12, v13 := v[4], v[5], v[6], v[7]
	v20, v21, v22, v23 := v[8], v[9], v[10], v[11]
	v30, v31, v32, v33 := v[12], v[13], v[14], v[15]
	for j := j0; j < n; j++ {
		w0, w1, w2, w3 := r0[j], r1[j], r2[j], r3[j]
		x0[j] -= v00*w0 + v01*w1 + v02*w2 + v03*w3
		x1[j] -= v10*w0 + v11*w1 + v12*w2 + v13*w3
		x2[j] -= v20*w0 + v21*w1 + v22*w2 + v23*w3
		x3[j] -= v30*w0 + v31*w1 + v32*w2 + v33*w3
	}
}

// gemmQuadRow is one row of gemmQuadGo,
//
//	x[j] -= ((v0·w0 + v1·w1) + v2·w2) + v3·w3,   j0 ≤ j < n,
//
// for the 1–3 rows past a kernel's last quad, so they take the quad rows'
// arithmetic exactly.
//
//repolint:hotpath
func gemmQuadRow(x, r []float64, rStride int, v0, v1, v2, v3 float64, j0, n int) {
	x = x[:n]
	r0 := r[:n]
	r1 := r[rStride : rStride+n]
	r2 := r[2*rStride : 2*rStride+n]
	r3 := r[3*rStride : 3*rStride+n]
	for j := j0; j < n; j++ {
		x[j] -= v0*r0[j] + v1*r1[j] + v2*r2[j] + v3*r3[j]
	}
}

// scatterRowsGo adds weighted copies of one row into accumulator rows:
//
//	acc[t[k]][j] += w[k]·row[j],   k = 0, 1, …, len(t)−1 in order, 0 ≤ j < len(row),
//
// with accumulator row t at acc[t·accStride:]. Repeated targets are
// allowed; each takes its update in turn. One multiply and one add per
// element, nothing to associate, so a vector lane over columns j computes
// exactly what one iteration of the j loop computes. acc must not
// overlap row.
//
//repolint:hotpath
func scatterRowsGo(acc []float64, accStride int, row []float64, t []int, w []float64) {
	n := len(row)
	for k, tk := range t {
		wk := w[k]
		dst := acc[tk*accStride : tk*accStride+n]
		for j, v := range row {
			dst[j] += wk * v
		}
	}
}
