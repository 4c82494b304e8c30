package tsqrcp

import (
	"fmt"

	"repro/internal/blas"
	"repro/mat"
)

// LstsqResult is the outcome of a (possibly rank-deficient) least-squares
// solve min‖A·x − b‖₂ via pivoted QR — the application QRCP was invented
// for (Golub 1965, the paper's reference [2]).
type LstsqResult struct {
	// X is the n×k block of solutions, one column per right-hand side.
	// Columns of A beyond the detected numerical rank receive zero
	// coefficients (the "basic solution").
	X *mat.Dense
	// Rank is the numerical rank used for the solve.
	Rank int
	// Resid[j] is ‖A·x_j − b_j‖₂ for each right-hand side.
	Resid []float64
}

// Lstsq solves the least-squares problem min‖A·x − B‖_F column-wise for a
// tall matrix A (m ≥ n) and right-hand sides B (m×k), handling numerical
// rank deficiency through column pivoting: the factorization A·P = Q·R is
// truncated at the numerical rank r (|R(j,j)| ≤ rcond·|R(0,0)| cut), the
// triangular system R₁₁·y = Q₁ᵀ·B is solved, and the solution is scattered
// back through the permutation with zeros in the dependent coordinates.
//
// rcond ≤ 0 selects the default threshold n·u. opts as in QRCP.
func Lstsq(a, b *mat.Dense, rcond float64, opts *Options) (*LstsqResult, error) {
	return DefaultEngine().Lstsq(a, b, rcond, opts)
}

// Lstsq is the package-level Lstsq on this engine.
func (e *Engine) Lstsq(a, b *mat.Dense, rcond float64, opts *Options) (*LstsqResult, error) {
	m, n := a.Rows, a.Cols
	if b.Rows != m {
		panic(fmt.Sprintf("tsqrcp: Lstsq A has %d rows, B has %d", m, b.Rows))
	}
	f, err := e.QRCP(a, opts)
	if err != nil {
		return nil, err
	}
	r := f.NumericalRank(rcond)
	if r == 0 {
		return &LstsqResult{X: mat.NewDense(n, b.Cols), Rank: 0, Resid: colNorms(b)}, nil
	}
	// y = Q₁ᵀ·B (r×k).
	q1 := f.Q.Slice(0, m, 0, r)
	y := mat.NewDense(r, b.Cols)
	blas.Gemm(e.eng(), blas.Trans, blas.NoTrans, 1, q1, b, 0, y)
	// Solve R₁₁·y = Q₁ᵀ·B in place.
	r11 := f.R.Slice(0, r, 0, r)
	blas.TrsmLeftUpperNoTrans(r11, y)
	// Scatter through the permutation: x[perm[i]] = y[i], rest zero.
	x := mat.NewDense(n, b.Cols)
	for i := 0; i < r; i++ {
		copy(x.Row(f.Perm[i]), y.Row(i))
	}
	// Residuals ‖A·x − B‖ per column.
	res := b.Clone()
	blas.Gemm(e.eng(), blas.NoTrans, blas.NoTrans, 1, a, x, -1, res)
	return &LstsqResult{X: x, Rank: r, Resid: colNorms(res)}, nil
}

// LstsqVec is Lstsq for a single right-hand side vector.
func LstsqVec(a *mat.Dense, b []float64, rcond float64, opts *Options) ([]float64, int, error) {
	bm := mat.NewDenseData(len(b), 1, append([]float64(nil), b...))
	res, err := DefaultEngine().Lstsq(a, bm, rcond, opts)
	if err != nil {
		return nil, 0, err
	}
	return res.X.Col(0, nil), res.Rank, nil
}

func colNorms(b *mat.Dense) []float64 {
	out := make([]float64, b.Cols)
	for j := range out {
		out[j] = b.ColNorm2(j)
	}
	return out
}
