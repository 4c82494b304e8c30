package core

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/parallel"
	"repro/mat"
)

// tsqrLeafRows is the row count below which a TSQR node is factored
// directly by blocked Householder QR.
const tsqrLeafRows = 2048

// TSQR computes the thin QR factorization by the communication-avoiding
// binary-reduction scheme of Demmel, Grigori, Hoemmen and Langou (the
// paper's reference [21]): row blocks are factored independently, and the
// small R factors are combined pairwise up a tree. Unconditionally stable
// (it is Householder QR throughout) and, like Cholesky QR, needs O(1)
// collectives in the distributed setting — but the combine tree costs
// more flops and synchronization than one SYRK, which is why the paper's
// references find Cholesky-QR-type methods faster in practice.
//
// Q is formed explicitly (m×n), matching the paper's problem setting.
func TSQR(e *parallel.Engine, a *mat.Dense) *QR {
	if a.Rows < a.Cols {
		panic(fmt.Sprintf("core: TSQR needs m ≥ n, got %d×%d", a.Rows, a.Cols))
	}
	q, r := tsqrNode(e, a)
	return &QR{Q: q, R: r}
}

// tsqrNode returns an explicit-Q factorization of one tree node.
func tsqrNode(e *parallel.Engine, a *mat.Dense) (q, r *mat.Dense) {
	n := a.Cols
	if a.Rows <= tsqrLeafRows || a.Rows < 2*n {
		qr := HouseholderQR(e, a)
		return qr.Q, qr.R
	}
	// The two halves, rows [half[h], half[h+1]), write disjoint results,
	// so whether For runs them in turn or at once changes no bit.
	half := [3]int{0, a.Rows / 2, a.Rows}
	var qh, rh [2]*mat.Dense
	e.For(2, 1, func(lo, hi int) {
		for h := lo; h < hi; h++ {
			qh[h], rh[h] = tsqrNode(e, a.RowSlice(half[h], half[h+1]))
		}
	})
	// Combine: QR of the stacked [R1; R2].
	stack := mat.NewDense(2*n, n)
	stack.Slice(0, n, 0, n).Copy(rh[0])
	stack.Slice(n, 2*n, 0, n).Copy(rh[1])
	tau := make([]float64, n)
	lapack.Geqrf(e, stack, tau)
	r = lapack.ExtractR(stack)
	lapack.Orgqr(e, stack, tau) // stack is now the 2n×n combine factor Qs
	// Propagate: Q = [Q1·Qs_top; Q2·Qs_bot].
	q = mat.NewDense(a.Rows, n)
	e.For(2, 1, func(lo, hi int) {
		for h := lo; h < hi; h++ {
			qs := stack.Slice(h*n, (h+1)*n, 0, n)
			blas.Gemm(e, blas.NoTrans, blas.NoTrans, 1, qh[h], qs, 0, q.RowSlice(half[h], half[h+1]))
		}
	})
	return q, r
}
