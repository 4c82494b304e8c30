package core

import (
	"fmt"

	"repro/internal/parallel"
	"repro/mat"
)

// PartialResult is a truncated pivoted factorization
//
//	A·P ≈ Q₁·R₁,   Q₁ ∈ R^(m×k), R₁ ∈ R^(k×n),
//
// with the approximation error governed by the discarded trailing block:
// ‖A·P − Q₁·R₁‖₂ ≈ σ_(k+1)(A). This is the truncation mode the paper
// highlights as a structural advantage of Ite-CholQR-CP (§V): the
// iteration can stop as soon as k trustworthy pivots are fixed, without
// ever orthogonalizing the full column set.
type PartialResult struct {
	Q    *mat.Dense // m×k, orthonormal columns
	R    *mat.Dense // k×n
	Perm mat.Perm
	// Rank is k, the number of columns actually factored: the requested
	// rank, or less when the matrix's numerical rank is smaller (the
	// trailing Schur complement collapsed first).
	Rank       int
	Iterations int
}

// IteCholQRCPPartial runs Ite-CholQR-CP until at least targetRank pivots
// are fixed or the remaining columns fall below the pivot tolerance, then
// reorthogonalizes only the leading block — a truncated QRCP. Pass
// targetRank = n for a full factorization via this code path.
func IteCholQRCPPartial(e *parallel.Engine, a *mat.Dense, eps float64, targetRank int) (*PartialResult, error) {
	if a.Rows < a.Cols {
		panic(fmt.Sprintf("core: IteCholQRCPPartial needs a tall matrix, got %d×%d", a.Rows, a.Cols))
	}
	res, err := iteCholQRCP(e, a, eps, targetRank, nil)
	if err != nil {
		return nil, err
	}
	return &PartialResult{Q: res.Q, R: res.R, Perm: res.Perm, Rank: res.Rank, Iterations: res.Iterations}, nil
}
