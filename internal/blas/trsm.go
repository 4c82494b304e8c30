package blas

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/mat"
)

func checkTriangular(r *mat.Dense, n int, who string) {
	if r.Rows != n || r.Cols != n {
		panic(fmt.Sprintf("blas: %s triangular factor %d×%d, want %d×%d", who, r.Rows, r.Cols, n, n))
	}
}

// TrsmRightUpperNoTrans computes B := B·R⁻¹ for upper triangular R. This is
// the Q := A·R⁻¹ kernel of Cholesky QR (m·n² flops, Level 3): rows of B are
// solved independently by the left-looking fusedTrsmRange, the same
// kernel the fused pass runs, and row ranges are distributed across
// cores. Every row is solved with identical arithmetic regardless of
// partitioning, so the result is bit-identical for every engine width —
// part of the determinism contract of the CQRRPT path.
//
// Panics if R has a zero diagonal entry. The engine e bounds the parallel
// width (nil selects the default engine).
func TrsmRightUpperNoTrans(e *parallel.Engine, b, r *mat.Dense) {
	n := b.Cols
	checkTriangular(r, n, "TrsmRightUpperNoTrans")
	for k := 0; k < n; k++ {
		if r.Data[k*r.Stride+k] == 0 {
			panic(fmt.Sprintf("blas: TrsmRightUpperNoTrans singular R at diagonal %d", k))
		}
	}
	sp := trace.Region(trace.KernelTrsm)
	defer sp.End()
	trace.AddFlops(trace.KernelTrsm, int64(b.Rows)*int64(n)*int64(n))
	if mulFlops(b.Rows, n, n) < gemmParallelFlops || e.Workers() == 1 {
		fusedTrsmRange(b, r, 0, b.Rows)
		return
	}
	minChunk := gemmParallelFlops / (mulFlops(n, n) + 1)
	e.For(b.Rows, minChunk+1, func(lo, hi int) {
		fusedTrsmRange(b, r, lo, hi)
	})
}

// TrsmLeftUpperTrans computes B := R⁻ᵀ·B for upper triangular R, i.e. it
// solves Rᵀ·X = B. Used for R₁₂ := R₁₁⁻ᵀ·W₁₂ (Algorithm 4, line 5) and
// for PotrfUpper's panel. It is the right-side solve on the transpose,
// Xᵀ := Bᵀ·R⁻¹: B is transposed into a pooled workspace, solved there by
// fusedTrsmRange (left-looking register tiles, the diagonal block solved
// in registers) and transposed back. Every element is one fma chain over
// the rows already solved, ascending, ended by the reciprocal multiply,
//
//	x[i][j] = fma(−R[t][i], x[t][j], x[i][j]),   t = 0, 1, …, i−1,   then x[i][j]·(1/R[i][i]),
//
// the right solve's chain with its product's factors swapped, which
// rounds the same. Only R's upper triangle is read.
//
// Panics if R has a zero diagonal entry.
func TrsmLeftUpperTrans(r, b *mat.Dense) {
	n, cols := b.Rows, b.Cols
	checkTriangular(r, n, "TrsmLeftUpperTrans")
	for i := 0; i < n; i++ {
		if r.Data[i*r.Stride+i] == 0 {
			panic(fmt.Sprintf("blas: TrsmLeftUpperTrans singular R at diagonal %d", i))
		}
	}
	if n == 0 || cols == 0 {
		return
	}
	sp := trace.Region(trace.KernelTrsm)
	defer sp.End()
	trace.AddFlops(trace.KernelTrsm, TrsmLeftFlops(n, cols))
	bt := mat.GetWorkspace(cols, n, false)
	transposeInto(bt, b)
	fusedTrsmRange(bt, r, 0, cols)
	transposeInto(b, bt)
	mat.PutWorkspace(bt)
}

// transposeInto sets dst := srcᵀ for a src.Cols×src.Rows dst that does
// not overlap src, four rows of src at a time, so each row of dst takes
// four adjacent stores.
func transposeInto(dst, src *mat.Dense) {
	m, n := src.Rows, src.Cols
	row := func(i int) []float64 { return src.Data[i*src.Stride : i*src.Stride+n] }
	i := 0
	for ; i+4 <= m; i += 4 {
		s0, s1, s2, s3 := row(i), row(i+1), row(i+2), row(i+3)
		for j, v := range s0 {
			d := dst.Data[j*dst.Stride+i : j*dst.Stride+i+4]
			d[0], d[1], d[2], d[3] = v, s1[j], s2[j], s3[j]
		}
	}
	for ; i < m; i++ {
		for j, v := range row(i) {
			dst.Data[j*dst.Stride+i] = v
		}
	}
}

// TrsmLeftFlops is the flop count TrsmLeftUpperTrans executes on an n×cols
// B, n²·cols: i fused multiply-adds and one multiply per element of row i.
// Stage rows that wrap the kernel add the same count.
func TrsmLeftFlops(n, cols int) int64 { return int64(n) * int64(n) * int64(cols) }

// TrsmLeftUpperNoTrans computes B := R⁻¹·B for upper triangular R by back
// substitution over rows.
func TrsmLeftUpperNoTrans(r, b *mat.Dense) {
	n := b.Rows
	checkTriangular(r, n, "TrsmLeftUpperNoTrans")
	sp := trace.Region(trace.KernelTrsm)
	defer sp.End()
	trace.AddFlops(trace.KernelTrsm, int64(n)*int64(n)*int64(b.Cols))
	for i := n - 1; i >= 0; i-- {
		d := r.Data[i*r.Stride+i]
		if d == 0 {
			panic(fmt.Sprintf("blas: TrsmLeftUpperNoTrans singular R at diagonal %d", i))
		}
		xi := b.Data[i*b.Stride : i*b.Stride+b.Cols]
		rrow := r.Data[i*r.Stride : i*r.Stride+r.Cols]
		for k := i + 1; k < n; k++ {
			c := rrow[k]
			if c == 0 {
				continue
			}
			xk := b.Data[k*b.Stride : k*b.Stride+b.Cols]
			for j := range xi {
				xi[j] -= c * xk[j]
			}
		}
		inv := 1 / d
		for j := range xi {
			xi[j] *= inv
		}
	}
}

// TrmmLeftUpperNoTrans computes B := A·B in place for upper triangular A
// (n×n) and any n-row B: the R := R′·R accumulation of Algorithm 4
// (line 12), CholQR2/3's R := R₂·R₁, Householder's T·W and the rest.
// It runs top-down over blocks of tileRows rows, each summed into a
// pooled tileRows×cols buffer and copied back: the block starting at row
// i₀ reads only rows t ≥ i₀ of B, which no earlier block has
// overwritten. The block's diagonal triangle goes first, by the row
// scatter: B's row i₀+u goes into the block's rows i₀ … i₀+u only, so
// row i's chains start at t = i. The rows t ≥ i₀+tileRows follow as
// tileNN passes with V = −A's rows packed on the stack. Every element is
// one fma chain over t, ascending,
//
//	c = fma(A[i][t], B[t][j], c),   c = 0, t = i, i+1, …, n−1,
//
// whatever the tile height. A's entries below the diagonal are never
// read, and no product is skipped for a zero entry of A.
func TrmmLeftUpperNoTrans(a, b *mat.Dense) {
	n, cols := b.Rows, b.Cols
	checkTriangular(a, n, "TrmmLeftUpperNoTrans")
	if n == 0 || cols == 0 {
		return
	}
	sp := trace.Region(trace.KernelTrmm)
	defer sp.End()
	trace.AddFlops(trace.KernelTrmm, TrmmFlops(n, cols))
	var v [maxTileRows * kBlock]float64
	var tgt [maxTileRows]int
	var w [maxTileRows]float64
	for s := range tgt {
		tgt[s] = s
	}
	rows := tileRows()
	buf := mat.GetWorkspace(rows, cols, false)
	for i0 := 0; i0 < n; i0 += rows {
		mr := min(rows, n-i0)
		c := buf.Data[:mr*cols]
		for j := range c {
			c[j] = 0
		}
		for u := 0; u < mr; u++ {
			for s := 0; s <= u; s++ {
				w[s] = a.Data[(i0+s)*a.Stride+i0+u]
			}
			scatterRows(c, cols, b.Data[(i0+u)*b.Stride:(i0+u)*b.Stride+cols], tgt[:u+1], w[:u+1])
		}
		for l0 := i0 + mr; l0 < n; l0 += kBlock {
			kc := min(kBlock, n-l0)
			for s := 0; s < mr; s++ {
				for t, av := range a.Data[(i0+s)*a.Stride+l0 : (i0+s)*a.Stride+l0+kc] {
					v[s*kBlock+t] = -av
				}
			}
			for j0 := 0; j0 < cols; {
				nc := tileWidth(cols - j0)
				tileNN(c[j0:], cols, v[:], kBlock, b.Data[l0*b.Stride+j0:], b.Stride, kc, mr, nc)
				j0 += nc
			}
		}
		for s := 0; s < mr; s++ {
			copy(b.Data[(i0+s)*b.Stride:(i0+s)*b.Stride+cols], c[s*cols:(s+1)*cols])
		}
	}
	mat.PutWorkspace(buf)
}

// TrmmFlops is the flop count TrmmLeftUpperNoTrans executes on an n×cols
// B, n·(n+1)·cols: n−i fused multiply-adds per element of row i. Stage
// rows that wrap the kernel add the same count.
func TrmmFlops(n, cols int) int64 { return int64(n) * int64(n+1) * int64(cols) }
