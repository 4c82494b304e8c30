package core

import (
	"errors"
	"fmt"

	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/mat"
)

// DefaultPivotTol is the paper's recommended tolerance ε ≈ 10⁻⁵ for
// P-Chol-CP inside Ite-CholQR-CP (§III-D2). With this setting the
// algorithm typically needs 3 pivoting iterations plus one
// reorthogonalization pass for κ₂(A) up to ~10¹⁶.
const DefaultPivotTol = 1e-5

// DefaultMaxIterations bounds the number of pivoting iterations; the
// expected count is ⌈log κ₂(A) / log(1/ε)⌉ ≲ 4, so hitting this bound
// indicates a stall (e.g. a structurally zero trailing block).
const DefaultMaxIterations = 64

// ErrStall reports that an Ite-CholQR-CP iteration could not fix any new
// pivot, which happens only when the remaining columns are exactly
// (not just numerically) linearly dependent or zero.
var ErrStall = errors.New("core: Ite-CholQR-CP stalled: remaining columns are exactly rank deficient")

// CPResult is a QR factorization with column pivoting A·P = Q·R.
type CPResult struct {
	// Q is m×n with orthonormal columns.
	Q *mat.Dense
	// R is n×n upper triangular.
	R *mat.Dense
	// Perm maps position j to the original column: (A·P)(:,j) = A(:,Perm[j]).
	Perm mat.Perm
	// Iterations is the number of pivoting iterations performed
	// (Ite-CholQR-CP only; the final reorthogonalization pass is not
	// counted). The total Gram/TRSM sweep count is Iterations+1.
	Iterations int
	// PivotCounts[i] is the number of pivots fixed in iteration i
	// (Ite-CholQR-CP only).
	PivotCounts []int
	// PivotIter[j] is the (0-based) iteration in which position j's pivot
	// was fixed (Ite-CholQR-CP only). Used to reproduce Fig. 3.
	PivotIter []int
	// Rank is the number of pivots fixed (Ite-CholQR-CP only): n for a
	// full factorization, fewer when a rank cap or a collapsed trailing
	// block stopped the iteration. Q then has Rank columns and R has
	// Rank rows.
	Rank int
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
// factor to A (one TRSM). After all n pivots are fixed, one plain CholQR
// pass reorthogonalizes the result, exactly as in CholeskyQR2.
func IteCholQRCP(e *parallel.Engine, a *mat.Dense, eps float64) (*CPResult, error) {
	if a.Rows < a.Cols {
		panic(fmt.Sprintf("core: IteCholQRCP needs a tall matrix, got %d×%d", a.Rows, a.Cols))
	}
	return FullRank(iteCholQRCP(e, a, eps, a.Cols, nil))
}

// IterTrace receives per-iteration state for instrumentation (used by the
// experiment harness to reproduce Fig. 3). It is called after each
// pivoting iteration with the iteration index, the number of new pivots,
// and the permutation accumulated so far.
type IterTrace func(iter, newPivots int, perm mat.Perm)

// IteCholQRCPTraced is IteCholQRCP with a per-iteration callback.
func IteCholQRCPTraced(e *parallel.Engine, a *mat.Dense, eps float64, trace IterTrace) (*CPResult, error) {
	if a.Rows < a.Cols {
		panic(fmt.Sprintf("core: IteCholQRCP needs a tall matrix, got %d×%d", a.Rows, a.Cols))
	}
	return FullRank(iteCholQRCP(e, a, eps, a.Cols, trace))
}

// iteCholQRCP is the in-core entry point: it runs the shared sweep
// driver over a DenseSweeper on a working copy of a and attaches the
// working matrix (now Q) to the result. All algorithm logic lives in
// IteCholQRCPSweeps so the out-of-core and distributed paths replay the
// exact same replicated steps.
func iteCholQRCP(e *parallel.Engine, a *mat.Dense, eps float64, rankCap int, iterCB IterTrace) (*CPResult, error) {
	// The working copy is the first Gram sweep's input; the Gram stage
	// times it, so a traced run leaves none of its time unattributed.
	sg := trace.Region(trace.StageGram)
	b := a.Clone()
	sg.End()
	sw := NewDenseSweeper(e, b)
	res, err := IteCholQRCPSweeps(e, a.Cols, sw, eps, rankCap, iterCB)
	if err != nil {
		return nil, err
	}
	res.Q = sw.Q(res.Rank)
	return res, nil
}

// FullRank passes a full-rank run through and reports one that a
// collapsed trailing block stopped short of n pivots as ErrStall — the
// contract of every untruncated Ite-CholQR-CP entry point.
func FullRank(res *CPResult, err error) (*CPResult, error) {
	if err == nil && res.Rank < len(res.Perm) {
		return nil, ErrStall
	}
	return res, err
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
