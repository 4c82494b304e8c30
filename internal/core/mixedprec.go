package core

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/parallel"
	"repro/mat"
)

// CholQRMixed computes Cholesky QR with the Gram matrix accumulated in
// single precision, in the spirit of the mixed-precision Cholesky QR of
// Yamazaki, Tomov and Dongarra (2015 — the paper's reference [10], which
// exploits faster low-precision units on accelerators). The Cholesky
// factorization and the triangular solve stay in double precision.
//
// The fp32 accumulation is blas.Gram32, which rounds every partial sum to
// float32 but reduces through the same width-invariant slot schedule as
// blas.Gram.
//
// The accuracy consequence is the expected one: the orthogonality of Q is
// limited by single-precision roundoff, ‖QᵀQ−I‖ ≈ u₃₂·κ₂(A)² with
// u₃₂ ≈ 6e-8, and breakdown moves in to κ₂(A) ≳ u₃₂^(−1/2) ≈ 4000. The
// ablation benchmark contrasts this against full double precision.
func CholQRMixed(e *parallel.Engine, a *mat.Dense) (*QR, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Sprintf("core: CholQRMixed needs m ≥ n, got %d×%d", m, n))
	}
	w := mat.NewDense(n, n)
	blas.Gram32(e, w, a)
	if err := lapack.PotrfUpper(e, w); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBreakdown, err)
	}
	lapack.ZeroLower(w)
	q := a.Clone()
	blas.TrsmRightUpperNoTrans(e, q, w)
	return &QR{Q: q, R: w}, nil
}
