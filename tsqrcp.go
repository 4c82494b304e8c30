package tsqrcp

import (
	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/mat"
)

// DefaultPivotTol is the recommended P-Chol-CP tolerance ε ≈ 10⁻⁵
// (paper §III-D2).
const DefaultPivotTol = core.DefaultPivotTol

// ErrBreakdown is returned when a Cholesky factorization inside an
// unpivoted Cholesky-QR algorithm loses positive definiteness
// (κ₂(A) ≳ 10⁸ for plain CholeskyQR/CholeskyQR2). Use ShiftedCholeskyQR3
// or QRCP instead.
var ErrBreakdown = core.ErrBreakdown

// Strategy selects the algorithm behind QRCP and QRCPBatch.
type Strategy int

const (
	// StrategyIteCholQRCP is the paper's iterated Cholesky QR with column
	// pivoting — the default: deterministic, with a pivot sequence that
	// matches Householder QRCP for the essential pivots.
	StrategyIteCholQRCP Strategy = iota
	// StrategyCQRRPT is the sketch-preconditioned randomized path: the
	// pivots come from a Householder QRCP of a 2n×n sparse-sign sketch of
	// A, whose triangular factor then preconditions A so a single CholQR
	// pass finishes the factorization. For very tall matrices this does
	// the m-sized work in roughly a third of the iterated path's flops
	// and DRAM traversals. The pivots generally differ from Householder
	// QRCP's greedy sequence (they optimize sketched norms) but reveal
	// the same rank profile, and |R(j,j)| is only approximately
	// non-increasing. Seeded by Options.Seed; if the sketch fails its
	// condition-estimate guard or the preconditioned Gram its Cholesky,
	// the call transparently falls back to the iterated path.
	StrategyCQRRPT
)

// Options control the pivoted factorizations.
type Options struct {
	// PivotTol is the P-Chol-CP tolerance ε. Zero value selects
	// DefaultPivotTol.
	PivotTol float64
	// Strategy selects the pivoting algorithm; the zero value is
	// StrategyIteCholQRCP.
	Strategy Strategy
	// Seed seeds the randomized embedding of StrategyCQRRPT. For a fixed
	// Seed the factorization is a deterministic function of the input —
	// bit-identical across engine widths. Ignored by
	// deterministic strategies.
	Seed uint64
}

func (o *Options) strategy() Strategy {
	if o == nil {
		return StrategyIteCholQRCP
	}
	return o.Strategy
}

func (o *Options) seed() uint64 {
	if o == nil {
		return 0
	}
	return o.Seed
}

func (o *Options) tol() float64 {
	if o == nil || o.PivotTol == 0 {
		return DefaultPivotTol
	}
	return o.PivotTol
}

// Factorization is a pivoted QR factorization
//
//	A·P = Q·R,
//
// with Q having orthonormal columns, R upper triangular with
// non-increasing |R(j,j)|, and P the permutation that makes the
// factorization rank-revealing. A factorization of Rank k has Q m×k and
// R k×n, with A·P ≈ Q·R a rank-k approximation: HouseholderQRCP and
// StrongRRQR always have Rank = n; QRCP has Rank = n unless the
// trailing columns collapsed to rounding noise, and QRCPTruncated stops
// at Rank ≤ k.
type Factorization struct {
	// Q has orthonormal columns.
	Q *mat.Dense
	// R is upper triangular.
	R *mat.Dense
	// Perm maps position j to the original column index:
	// (A·P)(:, j) = A(:, Perm[j]).
	Perm mat.Perm
	// Rank is the number of columns actually factored: n for a full
	// factorization, fewer when the pivoting found the remaining columns
	// exactly dependent (a zero or repeated column) or QRCPTruncated's
	// cap stopped it; 0 for a zero matrix.
	Rank int
	// Iterations is the number of pivoting iterations Ite-CholQR-CP used
	// (0 for the Householder baseline).
	Iterations int
}

// NumericalRank estimates the numerical rank from the diagonal of R: the
// number of leading diagonals with |R(j,j)| > tol·|R(0,0)|. With tol ≤ 0
// a default of n·u is used.
func (f *Factorization) NumericalRank(tol float64) int {
	return core.NumericalRank(f.R, tol)
}

// Reconstruct returns Q·R·Pᵀ ≈ A: the original matrix (up to rounding)
// for a full factorization, its rank-Rank approximation for a truncated
// one, in the original column order.
func (f *Factorization) Reconstruct() *mat.Dense {
	m, n := f.Q.Rows, f.R.Cols
	qr := mat.NewDense(m, n)
	blas.Gemm(parallel.Default, blas.NoTrans, blas.NoTrans, 1, f.Q, f.R, 0, qr)
	out := mat.NewDense(m, n)
	mat.PermuteCols(out, qr, f.Perm.Inverse())
	return out
}

// QRCP computes the QR factorization with column pivoting of a tall-skinny
// matrix (m ≥ n) using the paper's Ite-CholQR-CP algorithm on the default
// engine. The input is not modified. Accuracy matches Householder QRCP
// (including the pivot sequence) for condition numbers up to ~10¹⁶.
// The rank is a result: when the trailing columns are exactly dependent
// on the pivoted ones (a zero or repeated column), the factorization
// stops with Rank k < n, Q m×k and R k×n.
//
// Equivalent to DefaultEngine().QRCP(a, opts); use an explicit Engine for
// cancellation or to pin a width for the engine's lifetime.
func QRCP(a *mat.Dense, opts *Options) (*Factorization, error) {
	return DefaultEngine().QRCP(a, opts)
}

// HouseholderQRCP computes the same factorization with the conventional
// blocked Householder algorithm (LAPACK DGEQP3 + DORGQR structure) — the
// baseline Ite-CholQR-CP is measured against. Always numerically safe,
// but roughly half its flops are Level-2 and it does not scale on
// distributed systems.
func HouseholderQRCP(a *mat.Dense, opts *Options) *Factorization {
	return DefaultEngine().HouseholderQRCP(a, opts)
}

// QRCPTruncated computes a rank-k truncated pivoted QR factorization —
// a low-rank approximation — stopping the Ite-CholQR-CP iteration as soon
// as k trustworthy pivots are fixed. This avoids orthogonalizing the
// trailing columns entirely, the structural advantage over "QR first,
// then pivot R" approaches that the paper points out in §V.
func QRCPTruncated(a *mat.Dense, k int, opts *Options) (*Factorization, error) {
	return DefaultEngine().QRCPTruncated(a, k, opts)
}

// QR is an unpivoted thin QR factorization A = Q·R.
type QR struct {
	Q *mat.Dense
	R *mat.Dense
}

// CholeskyQR computes the thin QR factorization by a single Cholesky pass
// (Algorithm 2). Fastest, but Q loses orthogonality like u·κ₂(A)² and the
// algorithm fails for κ₂(A) ≳ 10⁸.
//
// Equivalent to DefaultEngine().CholeskyQR(a), as are all the one-shot
// helpers below: each delegates to its Engine method, so an explicit
// Engine adds cancellation or a width bound without changing results.
func CholeskyQR(a *mat.Dense) (*QR, error) {
	return DefaultEngine().CholeskyQR(a)
}

// CholeskyQR2 computes the thin QR factorization with one
// reorthogonalization pass; Householder-level accuracy for κ₂(A) ≲ 10⁸.
func CholeskyQR2(a *mat.Dense) (*QR, error) {
	return DefaultEngine().CholeskyQR2(a)
}

// ShiftedCholeskyQR3 computes the thin QR factorization of arbitrarily
// ill-conditioned matrices (κ₂(A) up to ~10¹⁶) via a shifted
// preconditioning pass followed by CholeskyQR2.
func ShiftedCholeskyQR3(a *mat.Dense) (*QR, error) {
	return DefaultEngine().ShiftedCholeskyQR3(a)
}

// HouseholderQR computes the thin QR factorization by blocked Householder
// reflections — the unconditionally stable reference.
func HouseholderQR(a *mat.Dense) *QR {
	return DefaultEngine().HouseholderQR(a)
}

// TSQR computes the thin QR factorization by the communication-avoiding
// Householder reduction tree (Demmel et al.) — unconditionally stable
// like HouseholderQR, with CholeskyQR-like O(1) collective structure.
func TSQR(a *mat.Dense) *QR {
	return DefaultEngine().TSQR(a)
}

// StrongRRQR computes a strong rank-revealing QR factorization at rank k
// in the Gu–Eisenstat sense: after the greedy pivoting, column
// interchanges continue until σ_min(R₁₁) ≥ σ_k/√(1+f²k(n−k)) and
// ‖R₂₂‖₂ ≤ σ_(k+1)·√(1+f²k(n−k)) are certified. Pass f ≤ 0 for the
// conventional f = 2. Use this when greedy pivoting's worst cases
// (Kahan-type matrices) must be excluded by construction.
func StrongRRQR(a *mat.Dense, k int, f float64) (*Factorization, error) {
	return DefaultEngine().StrongRRQR(a, k, f)
}

// StrongRRQR is the package-level StrongRRQR on this engine.
func (e *Engine) StrongRRQR(a *mat.Dense, k int, f float64) (*Factorization, error) {
	if f <= 0 {
		f = core.DefaultStrongRRQRF
	}
	res, err := core.StrongRRQR(e.eng(), a, k, f)
	if err != nil {
		return nil, err
	}
	return &Factorization{Q: res.Q, R: res.R, Perm: res.Perm, Rank: a.Cols}, nil
}
