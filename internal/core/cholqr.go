// Package core implements the paper's algorithms: the Cholesky QR family
// (CholQR, CholeskyQR2, shifted CholeskyQR3) for unpivoted tall-skinny QR,
// the proposed Ite-CholQR-CP algorithm for QR with column pivoting
// (Algorithm 4), and the conventional Householder QRCP baseline
// (Algorithm 1, via the LAPACK-style Geqp3 + Orgqr substrate).
package core

import (
	"errors"
	"fmt"

	"repro/internal/lapack"
	"repro/internal/parallel"
	"repro/mat"
)

// Unit roundoff of IEEE double precision.
const unitRoundoff = mat.Eps

// ErrBreakdown reports that a Cholesky factorization inside a Cholesky-QR
// algorithm lost positive definiteness — the paper's κ₂(A) ≳ u^(−1/2)
// breakdown mode (§III-A). Callers can retry with ShiftedCholQR3 or
// IteCholQRCP, both of which tolerate much worse conditioning.
var ErrBreakdown = errors.New("core: Cholesky breakdown (matrix too ill-conditioned); try a shifted or pivoted variant")

// QR holds an (economy-size) QR factorization A = Q·R with Q m×n
// orthonormal and R n×n upper triangular.
type QR struct {
	Q *mat.Dense
	R *mat.Dense
}

// CholQR computes the thin QR factorization of a via one Cholesky
// factorization of the Gram matrix (Algorithm 2):
//
//	W = AᵀA,  R = chol(W),  Q = A·R⁻¹.
//
// Both heavy steps are Level-3 and need exactly one reduction in the
// distributed setting, but the orthogonality of Q degrades like
// u·κ₂(A)² and the factorization breaks down for κ₂(A) ≳ u^(−1/2).
func CholQR(e *parallel.Engine, a *mat.Dense) (*QR, error) {
	q := a.Clone()
	sw := NewDenseSweeper(e, q)
	r := mat.NewDense(a.Cols, a.Cols)
	if err := sw.Gram(r); err != nil {
		return nil, err
	}
	if err := cholFinish(e, sw, r); err != nil {
		return nil, err
	}
	return &QR{Q: q, R: r}, nil
}

// CholQR2InPlace overwrites a with the orthonormal factor of its thin QR
// factorization (two Cholesky passes, as in CholQR2) and returns the
// accumulated R. The first pass's TRSM and the second pass's Gram run as
// one fused row-block sweep, saving three of the six full traversals of
// a:
//
//	pass 1: W₁ = AᵀA, R₁ = chol(W₁)
//	fused : A := A·R₁⁻¹ and W₂ = AᵀA in one row-block sweep
//	pass 2: R₂ = chol(W₂), A := A·R₂⁻¹, R = R₂·R₁
//
// The fused pass emits exactly the Gram of the updated A, so on
// breakdown the span of a's columns is unchanged: a first-pass failure
// leaves a untouched, a second-pass failure leaves the once-orthogonalized
// block, which spans the same space.
func CholQR2InPlace(e *parallel.Engine, a *mat.Dense) (*mat.Dense, error) {
	return cholQR2(e, NewDenseSweeper(e, a), a.Cols)
}

// CholQR2 computes the thin QR factorization by Cholesky QR with
// reorthogonalization (CholeskyQR2 of Fukaya et al. 2014): two CholQR
// passes, with R accumulated as R = R₂·R₁. For κ₂(A) ≲ u^(−1/2) the
// result is as accurate as Householder QR. The fused pass gathers a
// into the working matrix that becomes Q, so a is only read.
func CholQR2(e *parallel.Engine, a *mat.Dense) (*QR, error) {
	sw := NewDenseSweeperCopy(e, a)
	r, err := cholQR2(e, sw, a.Cols)
	if err != nil {
		return nil, err
	}
	return &QR{Q: sw.Q(a.Cols), R: r}, nil
}

// cholQR2 runs CholeskyQR2 over the n columns of sw and returns R.
func cholQR2(e *parallel.Engine, sw Sweeper, n int) (*mat.Dense, error) {
	r := mat.NewDense(n, n)
	if err := sw.Gram(r); err != nil {
		return nil, err
	}
	if err := chol(e, r); err != nil {
		return nil, err
	}
	if err := reorthogonalize(e, sw, r, r); err != nil {
		return nil, err
	}
	return r, nil
}

// maxShiftedPasses bounds the preconditioning passes of ShiftedCholQR3.
// One pass improves κ₂ by a factor ≈ √s/‖A‖₂ ≈ 10⁵, so two passes cover
// everything up to κ₂ ≈ u⁻¹ and the bound is never reached in practice.
const maxShiftedPasses = 8

// ShiftedCholQR3 computes the thin QR factorization of an arbitrarily
// ill-conditioned matrix (κ₂(A) up to ~u⁻¹) by the shifted Cholesky QR
// algorithm of Fukaya et al. (2020): a Cholesky pass on AᵀA + s·I with
// the shift s = 11·(m·n + n(n+1))·u·‖A‖₂² acts as a preconditioner that
// divides the condition number by roughly ‖A‖₂/√s ≈ 10⁵, and CholeskyQR2
// finishes the orthogonalization once the condition number is below
// u^(−1/2). For inputs beyond κ₂ ≈ 10¹⁰ a single shifted pass is not
// enough, so the preconditioning step repeats (the natural iterated
// extension of the original shiftedCholeskyQR3). R accumulates across
// all passes. Each pass's TRSM is fused with the next pass's Gram, so a
// single-shift run reads A four times and writes it three times.
func ShiftedCholQR3(e *parallel.Engine, a *mat.Dense) (*QR, error) {
	m, n := a.Rows, a.Cols
	sw := NewDenseSweeperCopy(e, a)
	r := mat.Identity(n)
	w1, w2 := mat.NewDense(n, n), mat.NewDense(n, n)
	for pass := 0; pass < maxShiftedPasses; pass++ {
		if err := e.Err(); err != nil {
			return nil, err
		}
		// Shifted preconditioning pass: R₁ = chol(AᵀA + s·I), R := R₁·R.
		if err := sw.Gram(w1); err != nil {
			return nil, err
		}
		// ‖A‖₂² ≤ ‖A‖_F² = trace(W), a cheap safe over-estimate.
		normF2 := 0.0
		for i := 0; i < n; i++ {
			normF2 += w1.At(i, i)
		}
		shift := 11 * float64(m*n+n*(n+1)) * unitRoundoff * normF2
		for i := 0; i < n; i++ {
			w1.Set(i, i, w1.At(i, i)+shift)
		}
		if err := chol(e, w1); err != nil {
			return nil, fmt.Errorf("shifted pass %d: %w", pass, err)
		}
		accumulate(w1, r)

		// Try to finish with CholeskyQR2 on A·R₁⁻¹, whose Gram the fused
		// pass streams out; on breakdown the condition number is still
		// above u^(−1/2) — precondition again.
		if err := fusedChol(e, sw, w1, w2); err != nil {
			continue
		}
		accumulate(w2, r)
		if err := reorthogonalize(e, sw, w2, r); err != nil {
			return nil, err
		}
		return &QR{Q: sw.Q(n), R: r}, nil
	}
	return nil, fmt.Errorf("%w: condition number not reduced after %d shifted passes", ErrBreakdown, maxShiftedPasses)
}

// HouseholderQR computes the thin QR factorization by blocked Householder
// reflections (DGEQRF + DORGQR) — the conventional, unconditionally stable
// reference the Cholesky QR family is measured against.
func HouseholderQR(e *parallel.Engine, a *mat.Dense) *QR {
	if a.Rows < a.Cols {
		panic(fmt.Sprintf("core: HouseholderQR needs m ≥ n, got %d×%d", a.Rows, a.Cols))
	}
	fac := a.Clone()
	tau := make([]float64, a.Cols)
	lapack.Geqrf(e, fac, tau)
	r := lapack.ExtractR(fac)
	lapack.Orgqr(e, fac, tau)
	return &QR{Q: fac, R: r}
}
