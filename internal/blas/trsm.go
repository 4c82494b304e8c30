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
// solves Rᵀ·X = B. Used for R₁₂ := R₁₁⁻ᵀ·W₁₂ (Algorithm 4, line 5). The
// recurrence over rows is sequential; each step is a row axpy.
func TrsmLeftUpperTrans(r, b *mat.Dense) {
	n := b.Rows
	checkTriangular(r, n, "TrsmLeftUpperTrans")
	sp := trace.Region(trace.KernelTrsm)
	defer sp.End()
	trace.AddFlops(trace.KernelTrsm, int64(n)*int64(n)*int64(b.Cols))
	for i := 0; i < n; i++ {
		d := r.Data[i*r.Stride+i]
		if d == 0 {
			panic(fmt.Sprintf("blas: TrsmLeftUpperTrans singular R at diagonal %d", i))
		}
		xi := b.Data[i*b.Stride : i*b.Stride+b.Cols]
		for k := 0; k < i; k++ {
			c := r.Data[k*r.Stride+i] // Rᵀ[i,k]
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

// TrmmLeftUpperNoTrans computes B := A·B in place for upper triangular A.
// Used to accumulate R := R'·R (Algorithm 4, line 12). Rows are updated in
// increasing order, which is safe in place because row i of the product
// depends only on rows k ≥ i of the old B.
func TrmmLeftUpperNoTrans(a, b *mat.Dense) {
	n := b.Rows
	checkTriangular(a, n, "TrmmLeftUpperNoTrans")
	sp := trace.Region(trace.KernelTrmm)
	defer sp.End()
	trace.AddFlops(trace.KernelTrmm, int64(n)*int64(n)*int64(b.Cols))
	for i := 0; i < n; i++ {
		arow := a.Data[i*a.Stride : i*a.Stride+a.Cols]
		bi := b.Data[i*b.Stride : i*b.Stride+b.Cols]
		aii := arow[i]
		for j := range bi {
			bi[j] *= aii
		}
		for k := i + 1; k < n; k++ {
			c := arow[k]
			if c == 0 {
				continue
			}
			bk := b.Data[k*b.Stride : k*b.Stride+b.Cols]
			for j := range bi {
				bi[j] += c * bk[j]
			}
		}
	}
}
