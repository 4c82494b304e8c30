// Package core implements the paper's algorithms: the Cholesky QR family
// (CholQR, CholeskyQR2, shifted CholeskyQR3) for unpivoted tall-skinny QR,
// the proposed Ite-CholQR-CP algorithm for QR with column pivoting
// (Algorithm 4), and the conventional Householder QRCP baseline
// (Algorithm 1, via the LAPACK-style Geqp3 + Orgqr substrate).
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/parallel"
	"repro/internal/trace"
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
	r, err := cholQRInPlace(e, q)
	if err != nil {
		return nil, err
	}
	return &QR{Q: q, R: r}, nil
}

// cholQRInPlace overwrites a with Q and returns R: one CholQR pass over
// the in-core sweeper.
func cholQRInPlace(e *parallel.Engine, a *mat.Dense) (*mat.Dense, error) {
	r := mat.NewDense(a.Cols, a.Cols)
	sw := NewDenseSweeper(e, a)
	if err := sw.Gram(r); err != nil {
		return nil, err
	}
	if err := cholFinish(e, sw, r); err != nil {
		return nil, err
	}
	return r, nil
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
	n := a.Cols
	w := mat.NewDense(n, n)
	sg := trace.Region(trace.StageGram)
	blas.Gram(e, w, a)
	sg.End()
	trace.AddFlops(trace.StageGram, int64(a.Rows)*int64(n)*int64(n+1))
	if mat.DebugChecks {
		mat.CheckFinite("core", "CholQR Gram matrix", w)
	}
	sc := trace.Region(trace.StageCholCP)
	err := lapack.PotrfUpper(e, w)
	sc.End()
	trace.AddFlops(trace.StageCholCP, int64(n)*int64(n)*int64(n)/3)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBreakdown, err)
	}
	lapack.ZeroLower(w)
	r1 := w

	// First TRSM fused with the second Gram: one pass over a instead of
	// two (write of the solve, then re-read by the next SYRK sweep).
	w2 := mat.NewDense(n, n)
	sf := trace.Region(trace.StageFused)
	blas.PermTrsmGramFused(e, a, nil, r1, w2)
	sf.End()
	trace.AddFlops(trace.StageFused,
		int64(a.Rows)*int64(n)*int64(n)+int64(a.Rows)*int64(n)*int64(n+1))
	trace.AddBytes(trace.StageFused, 2*8*int64(a.Rows)*int64(n))
	if mat.DebugChecks {
		mat.CheckFinite("core", "CholQR Gram matrix", w2)
	}

	sc2 := trace.Region(trace.StageCholCP)
	err = lapack.PotrfUpper(e, w2)
	sc2.End()
	trace.AddFlops(trace.StageCholCP, int64(n)*int64(n)*int64(n)/3)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBreakdown, err)
	}
	lapack.ZeroLower(w2)
	st := trace.Region(trace.StageTrsm)
	blas.TrsmRightUpperNoTrans(e, a, w2)
	st.End()
	trace.AddFlops(trace.StageTrsm, int64(a.Rows)*int64(n)*int64(n))
	blas.TrmmLeftUpperNoTrans(w2, r1) // R := R₂·R₁
	return r1, nil
}

// CholQR2 computes the thin QR factorization by Cholesky QR with
// reorthogonalization (CholeskyQR2 of Fukaya et al. 2014): two CholQR
// passes, with R accumulated as R = R₂·R₁. For κ₂(A) ≲ u^(−1/2) the
// result is as accurate as Householder QR.
func CholQR2(e *parallel.Engine, a *mat.Dense) (*QR, error) {
	q := a.Clone()
	r1, err := CholQR2InPlace(e, q)
	if err != nil {
		return nil, err
	}
	return &QR{Q: q, R: r1}, nil
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
// all passes.
func ShiftedCholQR3(e *parallel.Engine, a *mat.Dense) (*QR, error) {
	m, n := a.Rows, a.Cols
	q := a.Clone()
	rAcc := mat.Identity(n)
	for pass := 0; pass < maxShiftedPasses; pass++ {
		if err := e.Err(); err != nil {
			return nil, err
		}
		// Shifted preconditioning pass: R₁ = chol(QᵀQ + s·I), Q := Q·R₁⁻¹.
		w := mat.NewDense(n, n)
		blas.Gram(e, w, q)
		// ‖A‖₂² ≤ ‖A‖_F² = trace(W), a cheap safe over-estimate.
		normF2 := 0.0
		for i := 0; i < n; i++ {
			normF2 += w.At(i, i)
		}
		shift := 11 * float64(m*n+n*(n+1)) * unitRoundoff * normF2
		for i := 0; i < n; i++ {
			w.Set(i, i, w.At(i, i)+shift)
		}
		if err := lapack.PotrfUpper(e, w); err != nil {
			return nil, fmt.Errorf("%w: shifted pass %d: %v", ErrBreakdown, pass, err)
		}
		lapack.ZeroLower(w)
		blas.TrsmRightUpperNoTrans(e, q, w)
		blas.TrmmLeftUpperNoTrans(w, rAcc) // R := R₁·R

		// Try to finish with CholeskyQR2; on breakdown the condition
		// number is still above u^(−1/2) — precondition again.
		r2, err := cholQRInPlace(e, q)
		if err != nil {
			continue
		}
		r3, err := cholQRInPlace(e, q)
		if err != nil {
			return nil, err
		}
		blas.TrmmLeftUpperNoTrans(r2, rAcc)
		blas.TrmmLeftUpperNoTrans(r3, rAcc)
		return &QR{Q: q, R: rAcc}, nil
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

// orthogonality returns ‖QᵀQ − I‖_F/√n, the paper's Fig. 2(a) metric.
func orthogonality(q *mat.Dense) float64 {
	n := q.Cols
	g := mat.NewDense(n, n)
	blas.Gram(nil, g, q)
	for i := 0; i < n; i++ {
		g.Set(i, i, g.At(i, i)-1)
	}
	return g.FrobeniusNorm() / math.Sqrt(float64(n))
}
