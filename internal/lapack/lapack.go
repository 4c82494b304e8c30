// Package lapack implements the higher-level dense factorizations the
// library needs, in the spirit of the LAPACK routines the paper's
// reference implementation calls:
//
//   - PotrfUpper         — DPOTRF: blocked Cholesky factorization
//   - Geqrf / Orgqr      — DGEQRF/DORGQR: blocked Householder QR, explicit Q
//   - Geqp3              — DGEQP3: blocked, BLAS-3 QR with column pivoting
//   - JacobiSVDValues    — singular values via one-sided Jacobi (metrics)
//
// Everything is built on the kernels in internal/blas and runs on
// row-major mat.Dense values.
package lapack

import "fmt"

// NotPositiveDefiniteError reports that a Cholesky factorization hit a
// non-positive diagonal at the given (0-based) elimination index — the
// breakdown mode the paper's §III-A discusses for κ₂(A) ≳ u^(-1/2).
type NotPositiveDefiniteError struct {
	Index int
}

func (e *NotPositiveDefiniteError) Error() string {
	return fmt.Sprintf("lapack: matrix not positive definite at pivot %d", e.Index)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
