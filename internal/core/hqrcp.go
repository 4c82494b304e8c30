package core

import (
	"fmt"

	"repro/internal/lapack"
	"repro/internal/parallel"
	"repro/mat"
)

// HQRCP computes the QR factorization with column pivoting by the
// conventional Householder algorithm (the paper's Algorithm 1), using the
// blocked BLAS-3 variant (DGEQP3 structure) followed by explicit formation
// of Q (DORGQR). This is the single-node baseline of the paper's
// evaluation.
func HQRCP(e *parallel.Engine, a *mat.Dense) *CPResult {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Sprintf("core: HQRCP needs a tall matrix, got %d×%d", m, n))
	}
	fac := a.Clone()
	tau := make([]float64, n)
	jpvt := make(mat.Perm, n)
	lapack.Geqp3(e, fac, tau, jpvt)
	r := lapack.ExtractR(fac)
	lapack.Orgqr(e, fac, tau)
	return &CPResult{Q: fac, R: r, Perm: jpvt}
}

// HQRCPNoQ runs the pivoted factorization without forming Q explicitly —
// for the applications the paper mentions where only R and P are needed.
// The returned CPResult has Q == nil.
func HQRCPNoQ(e *parallel.Engine, a *mat.Dense) *CPResult {
	fac := a.Clone()
	n := a.Cols
	tau := make([]float64, min(a.Rows, n))
	jpvt := make(mat.Perm, n)
	lapack.Geqp3(e, fac, tau, jpvt)
	var r *mat.Dense
	if a.Rows >= n {
		r = lapack.ExtractR(fac)
	}
	return &CPResult{R: r, Perm: jpvt}
}

// HQRCPTruncated computes the rank-k truncated Householder QRCP
// A·P ≈ Q₁·R₁ (Q₁ m×k, R₁ k×n) by stopping DGEQP3 after k pivots — the
// conventional-baseline counterpart of IteCholQRCP's rank cap for the
// low-rank comparison of §V.
func HQRCPTruncated(e *parallel.Engine, a *mat.Dense, k int) *CPResult {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Sprintf("core: HQRCPTruncated needs a tall matrix, got %d×%d", m, n))
	}
	if k < 1 || k > n {
		panic(fmt.Sprintf("core: HQRCPTruncated rank %d outside [1,%d]", k, n))
	}
	fac := a.Clone()
	tau := make([]float64, k)
	jpvt := make(mat.Perm, n)
	lapack.Geqp3Partial(e, fac, tau, jpvt, k)
	r1 := mat.NewDense(k, n)
	for i := 0; i < k; i++ {
		copy(r1.Data[i*r1.Stride+i:i*r1.Stride+n], fac.Data[i*fac.Stride+i:i*fac.Stride+n])
	}
	q1 := fac.Slice(0, m, 0, k).Clone()
	lapack.Orgqr(e, q1, tau)
	return &CPResult{Q: q1, R: r1, Perm: jpvt, Rank: k}
}
