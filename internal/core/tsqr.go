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
	mid := a.Rows / 2
	var q1, r1, q2, r2 *mat.Dense
	both(e,
		func() { q1, r1 = tsqrNode(e, a.RowSlice(0, mid)) },
		func() { q2, r2 = tsqrNode(e, a.RowSlice(mid, a.Rows)) },
	)
	// Combine: QR of the stacked [R1; R2].
	stack := mat.NewDense(2*n, n)
	stack.Slice(0, n, 0, n).Copy(r1)
	stack.Slice(n, 2*n, 0, n).Copy(r2)
	tau := make([]float64, n)
	lapack.Geqrf(e, stack, tau)
	r = lapack.ExtractR(stack)
	lapack.Orgqr(e, stack, tau) // stack is now the 2n×n combine factor Qs
	// Propagate: Q = [Q1·Qs_top; Q2·Qs_bot].
	q = mat.NewDense(a.Rows, n)
	qsTop := stack.Slice(0, n, 0, n)
	qsBot := stack.Slice(n, 2*n, 0, n)
	both(e,
		func() { blas.Gemm(e, blas.NoTrans, blas.NoTrans, 1, q1, qsTop, 0, q.RowSlice(0, mid)) },
		func() { blas.Gemm(e, blas.NoTrans, blas.NoTrans, 1, q2, qsBot, 0, q.RowSlice(mid, a.Rows)) },
	)
	return q, r
}

// both runs the two halves of a node: one after the other on a width-1
// engine, which grants no second worker, else concurrently through e.Do.
// The halves write disjoint results, so the order changes no bit.
func both(e *parallel.Engine, f, g func()) {
	if e.Workers() == 1 {
		f()
		g()
		return
	}
	e.Do(f, g)
}
