package core

import (
	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/parallel"
	"repro/mat"
)

// Infallible adapts an error-free QR (TSQR, HouseholderQR) to the
// signature of the fallible ones, for callers that take either, such as
// QRThenQRCP.
func Infallible(qr func(*parallel.Engine, *mat.Dense) *QR) func(*parallel.Engine, *mat.Dense) (*QR, error) {
	return func(e *parallel.Engine, a *mat.Dense) (*QR, error) {
		return qr(e, a), nil
	}
}

// QRThenQRCP is the comparator approach of Cunha, Becker and Patterson
// (the paper's reference [30], discussed in §V): first an unpivoted
// tall-skinny QR A = Q₀·R₀ with a fast CA algorithm (inner, e.g.
// ShiftedCholQR3 or Infallible(TSQR)), then a small Householder QRCP of
// the n×n factor, R₀·P = Q₁·R. The result A·P = (Q₀·Q₁)·R is a full QRCP
// with the same pivots as HQR-CP.
//
// The structural drawback the paper points out: the *entire* unpivoted
// QR must finish before the first pivot is known, so — unlike
// Ite-CholQR-CP — this approach cannot truncate early for low-rank work.
func QRThenQRCP(e *parallel.Engine, a *mat.Dense, inner func(*parallel.Engine, *mat.Dense) (*QR, error)) (*CPResult, error) {
	n := a.Cols
	qr0, err := inner(e, a)
	if err != nil {
		return nil, err
	}
	// Small pivoted QR of the n×n R factor.
	fac := qr0.R.Clone()
	tau := make([]float64, n)
	jpvt := make(mat.Perm, n)
	lapack.Geqp3(e, fac, tau, jpvt)
	r := lapack.ExtractR(fac)
	lapack.Orgqr(e, fac, tau) // fac is now the n×n Q₁
	q := mat.NewDense(a.Rows, n)
	blas.Gemm(e, blas.NoTrans, blas.NoTrans, 1, qr0.Q, fac, 0, q)
	return &CPResult{Q: q, R: r, Perm: jpvt}, nil
}
