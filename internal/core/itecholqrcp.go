package core

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/mat"
)

// DefaultPivotTol is the paper's recommended tolerance ε ≈ 10⁻⁵ for
// P-Chol-CP inside Ite-CholQR-CP (§III-D2). With this setting the
// algorithm typically needs 3 pivoting iterations plus one
// reorthogonalization pass for κ₂(A) up to ~10¹⁶.
const DefaultPivotTol = 1e-5

// CPResult is a QR factorization with column pivoting A·P = Q·R.
type CPResult struct {
	// Q is m×Rank with orthonormal columns.
	Q *mat.Dense
	// R is Rank×n upper triangular.
	R *mat.Dense
	// Perm maps position j to the original column: (A·P)(:,j) = A(:,Perm[j]).
	Perm mat.Perm
	// Iterations is the number of pivoting iterations performed
	// (Ite-CholQR-CP only; the final reorthogonalization pass is not
	// counted). The factorization computes Iterations+1 Gram matrices.
	Iterations int
	// PivotCounts[i] is the number of pivots fixed in iteration i
	// (Ite-CholQR-CP only); 0 for a pass that only reorthogonalized the
	// fixed columns after the trailing block collapsed.
	PivotCounts []int
	// PivotIter[j] is the (0-based) iteration in which position j's pivot
	// was fixed (Ite-CholQR-CP only). Used to reproduce Fig. 3.
	PivotIter []int
	// Rank is the number of columns factored (Ite-CholQR-CP, CQRRPT and
	// HQRCPTruncated only): the rank cap, or fewer when the trailing
	// block collapsed first — 0 for a zero matrix. Q then has Rank
	// columns and R has Rank rows.
	Rank int
}

// NumericalRank estimates the numerical rank of a pivoted factorization
// from the diagonal of its R: the number of leading diagonals with
// |R(j,j)| > tol·|R(0,0)|. With tol ≤ 0 a default of n·u is used.
func NumericalRank(r *mat.Dense, tol float64) int {
	n := r.Rows
	if n == 0 {
		return 0
	}
	lead := math.Abs(r.At(0, 0))
	if lead == 0 {
		return 0
	}
	if tol <= 0 {
		tol = float64(n) * mat.Eps
	}
	k := 0
	for j := 0; j < n; j++ {
		if math.Abs(r.At(j, j)) > tol*lead {
			k = j + 1
		} else {
			break
		}
	}
	return k
}

// IteCholQRCP computes the QR factorization with column pivoting of a tall
// and skinny matrix by the paper's Iterative Cholesky QR with Column
// Pivoting (Algorithm 4) with tolerance eps (use DefaultPivotTol).
//
// Each iteration forms the Gram matrix W = AᵀA (one GEMM/SYRK and, in the
// distributed version, the only collective), Cholesky-factors the
// already-fixed leading block, eliminates its coupling to the remainder,
// runs P-Chol-CP on the trailing Schur complement to fix the next batch of
// trustworthy pivots, and applies the inverse of the combined triangular
// factor to A (one TRSM). Once the pivots are fixed, one plain CholQR
// pass reorthogonalizes the result, exactly as in CholeskyQR2.
//
// The iteration stops at rankCap ∈ [1, n] pivots (n for a full
// factorization), or earlier when the trailing block collapses: the
// rank is a result, not an error. A result of Rank k has Q m×k and R
// k×n, and is the truncated factorization
//
//	A·P ≈ Q·R,   ‖A·P − Q·R‖₂ ≈ σ_(k+1)(A),
//
// which a rank cap below n reaches without ever orthogonalizing the
// trailing columns — the structural advantage the paper highlights
// (§V).
func IteCholQRCP(e *parallel.Engine, a *mat.Dense, eps float64, rankCap int) (*CPResult, error) {
	if a.Rows < a.Cols {
		panic(fmt.Sprintf("core: IteCholQRCP needs a tall matrix, got %d×%d", a.Rows, a.Cols))
	}
	// The sweeps read a until the first FusedPivot gathers it into a
	// fresh working matrix, which becomes Q. All algorithm logic lives
	// in IteCholQRCPSweeps so the out-of-core and distributed paths
	// replay the exact same replicated steps.
	sw := NewDenseSweeperCopy(e, a)
	res, err := IteCholQRCPSweeps(e, a.Cols, sw, eps, rankCap)
	if err != nil {
		return nil, err
	}
	res.Q = sw.Q(res.Rank)
	return res, nil
}

// applyTrailingPerm computes p := p·P″ where P″ = diag(I_k, tp):
// positions ≥ k are re-mapped through tp.
func applyTrailingPerm(p mat.Perm, k int, tp mat.Perm) {
	old := make(mat.Perm, len(p)-k)
	copy(old, p[k:])
	for j, v := range tp {
		p[k+j] = old[v]
	}
}
