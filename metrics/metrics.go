// Package metrics implements the accuracy metrics of the paper's
// evaluation (§IV-B):
//
//   - orthogonality  ‖QᵀQ − I‖_F / √n
//   - residual       ‖A·Π − Q·R‖_F / ‖A‖_F
//   - κ₂(R₁₁)        condition number of the leading k×k block of R
//   - ‖R₂₂‖₂         spectral norm of the trailing block of R
//
// plus the pivot-outcome classification (correct / incorrect /
// not-computed) used in Figures 1 and 3.
package metrics

import (
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/parallel"
	"repro/mat"
)

// Orthogonality returns ‖QᵀQ − I‖_F / √n.
func Orthogonality(q *mat.Dense) float64 {
	n := q.Cols
	g := mat.NewDense(n, n)
	blas.Gram(parallel.Default, g, q)
	for i := 0; i < n; i++ {
		g.Set(i, i, g.At(i, i)-1)
	}
	return g.FrobeniusNorm() / math.Sqrt(float64(n))
}

// Residual returns ‖A·Π − Q·R‖_F / ‖A‖_F for the pivoted factorization
// A·Π = Q·R.
func Residual(a, q, r *mat.Dense, perm mat.Perm) float64 {
	if len(perm) != a.Cols {
		panic(fmt.Sprintf("metrics: perm length %d != cols %d", len(perm), a.Cols))
	}
	ap := mat.NewDense(a.Rows, a.Cols)
	mat.PermuteCols(ap, a, perm)
	blas.Gemm(parallel.Default, blas.NoTrans, blas.NoTrans, -1, q, r, 1, ap)
	return ap.FrobeniusNorm() / a.FrobeniusNorm()
}

// CondR11 returns κ₂ of the leading k×k block of R.
func CondR11(r *mat.Dense, k int) float64 {
	return lapack.Cond2(r.Slice(0, k, 0, k))
}

// NormR22 returns ‖R₂₂‖₂, the spectral norm of the trailing
// (n−k)×(n−k) block of R. For k == r.Rows it returns 0.
func NormR22(r *mat.Dense, k int) float64 {
	if k >= r.Rows {
		return 0
	}
	return lapack.Norm2(r.Slice(k, r.Rows, k, r.Cols))
}

// PivotOutcome classifies one pivot position against the reference
// selection, as in the paper's Fig. 1 and Fig. 3.
type PivotOutcome int

const (
	// PivotCorrect: the algorithm selected the same original column as
	// the reference (✓).
	PivotCorrect PivotOutcome = iota
	// PivotIncorrect: a different column was selected (✗).
	PivotIncorrect
	// PivotNotComputed: the algorithm stopped before this position (—).
	PivotNotComputed
)

func (o PivotOutcome) String() string {
	switch o {
	case PivotCorrect:
		return "✓"
	case PivotIncorrect:
		return "✗"
	case PivotNotComputed:
		return "-"
	default:
		return "?"
	}
}

// ClassifyPivots compares a computed pivot sequence against a reference
// (e.g. HQR-CP's). Positions ≥ nComputed are marked not-computed; the
// comparison considers the first `upto` positions (pass len(ref) for all).
func ClassifyPivots(got, ref mat.Perm, nComputed, upto int) []PivotOutcome {
	if upto > len(ref) {
		upto = len(ref)
	}
	out := make([]PivotOutcome, upto)
	for j := 0; j < upto; j++ {
		switch {
		case j >= nComputed:
			out[j] = PivotNotComputed
		case j < len(got) && got[j] == ref[j]:
			out[j] = PivotCorrect
		default:
			out[j] = PivotIncorrect
		}
	}
	return out
}

// CountCorrectPrefix returns the length of the leading run of matching
// pivots between got and ref (the paper's "1st case" boundary).
func CountCorrectPrefix(got, ref mat.Perm) int {
	n := len(got)
	if len(ref) < n {
		n = len(ref)
	}
	for j := 0; j < n; j++ {
		if got[j] != ref[j] {
			return j
		}
	}
	return n
}

// AllCorrect reports whether the first `upto` pivots match the reference.
func AllCorrect(got, ref mat.Perm, upto int) bool {
	if upto > len(got) || upto > len(ref) {
		return false
	}
	return CountCorrectPrefix(got[:upto], ref[:upto]) == upto
}
