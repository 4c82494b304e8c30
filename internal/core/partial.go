package core

import (
	"fmt"

	"repro/internal/parallel"
	"repro/mat"
)

// IteCholQRCPPartial computes a truncated pivoted factorization
//
//	A·P ≈ Q₁·R₁,   Q₁ ∈ R^(m×k), R₁ ∈ R^(k×n),
//
// with the approximation error governed by the discarded trailing block:
// ‖A·P − Q₁·R₁‖₂ ≈ σ_(k+1)(A). It runs Ite-CholQR-CP until targetRank
// pivots are fixed or the remaining columns fall below the pivot
// tolerance, then reorthogonalizes only the leading block; the result's
// Rank is k, the requested rank or less when the trailing Schur
// complement collapsed first. This is the truncation mode the paper
// highlights as a structural advantage of Ite-CholQR-CP (§V): the
// iteration stops as soon as k trustworthy pivots are fixed, without
// ever orthogonalizing the full column set. Pass targetRank = n for a
// full factorization via this code path.
func IteCholQRCPPartial(e *parallel.Engine, a *mat.Dense, eps float64, targetRank int) (*CPResult, error) {
	if a.Rows < a.Cols {
		panic(fmt.Sprintf("core: IteCholQRCPPartial needs a tall matrix, got %d×%d", a.Rows, a.Cols))
	}
	return iteCholQRCP(e, a, eps, targetRank)
}
