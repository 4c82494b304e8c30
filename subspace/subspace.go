// Package subspace implements block subspace iteration with Rayleigh–Ritz
// extraction for large symmetric eigenproblems, and a randomized range
// finder for low-rank approximation — the "orthogonal basis in numerical
// methods for eigenvalue problems" application from the paper's
// introduction.
//
// Every iteration must (re)orthonormalize a tall-skinny block of iterate
// vectors. That block becomes numerically rank-deficient exactly when the
// iteration converges (all columns align with the dominant eigenspace),
// which is where plain Cholesky QR breaks down and pivoted QR is the
// right tool: the rank-revealing factorization detects the collapse and
// the lost directions are replenished with fresh random vectors.
package subspace

import (
	"fmt"
	"math/rand"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/parallel"
	"repro/mat"
)

// Operator applies a linear map y := A·x column-wise on blocks. Dim is
// the (square, symmetric) dimension.
type Operator interface {
	Dim() int
	// Apply computes dst = A·x for an n×k block x; dst is pre-allocated
	// n×k and must not alias x.
	Apply(dst, x *mat.Dense)
}

// MatOperator wraps an explicit symmetric matrix as an Operator.
type MatOperator struct {
	A *mat.Dense
}

// Dim returns the operator dimension.
func (m MatOperator) Dim() int { return m.A.Rows }

// Apply computes dst = A·x.
func (m MatOperator) Apply(dst, x *mat.Dense) {
	blas.Gemm(parallel.Default, blas.NoTrans, blas.NoTrans, 1, m.A, x, 0, dst)
}

// EigOptions configure SymEigs.
type EigOptions struct {
	// Iterations of block power iteration (default 30).
	Iterations int
	// Extra subspace dimensions beyond the requested eigenpairs
	// (default max(2, k/2)); more padding speeds convergence of the
	// trailing wanted pairs.
	Oversample int
	// Rng for the start block (default rand.New(rand.NewSource(1))).
	Rng *rand.Rand
}

func (o *EigOptions) iters() int {
	if o == nil || o.Iterations <= 0 {
		return 30
	}
	return o.Iterations
}

func (o *EigOptions) extra(k int) int {
	if o == nil || o.Oversample < 0 {
		e := k / 2
		if e < 2 {
			e = 2
		}
		return e
	}
	return o.Oversample
}

func (o *EigOptions) rng() *rand.Rand {
	if o == nil || o.Rng == nil {
		return rand.New(rand.NewSource(1))
	}
	return o.Rng
}

// SymEigs computes the k algebraically largest-magnitude eigenpairs of a
// symmetric operator by block subspace iteration: orthonormalize, apply,
// repeat; then one Rayleigh–Ritz extraction. Orthonormalization uses
// CholeskyQR2 on the fast path and falls back to pivoted QR with random
// replenishment when the block loses numerical rank.
//
// Returned eigenvalues are sorted by decreasing value with matching
// eigenvector columns (n×k).
func SymEigs(op Operator, k int, opts *EigOptions) (vals []float64, vecs *mat.Dense, err error) {
	n := op.Dim()
	if k < 1 || k > n {
		panic(fmt.Sprintf("subspace: k=%d outside [1,%d]", k, n))
	}
	rng := opts.rng()
	b := k + opts.extra(k)
	if b > n {
		b = n
	}
	x := mat.NewDense(n, b)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := mat.NewDense(n, b)
	for it := 0; it < opts.iters(); it++ {
		if err := orthonormalize(x, rng); err != nil {
			return nil, nil, err
		}
		op.Apply(y, x)
		x, y = y, x
	}
	if err := orthonormalize(x, rng); err != nil {
		return nil, nil, err
	}
	// Rayleigh–Ritz: T = Xᵀ·A·X, eigendecompose, rotate.
	op.Apply(y, x)
	t := mat.NewDense(b, b)
	blas.Gemm(parallel.Default, blas.Trans, blas.NoTrans, 1, x, y, 0, t)
	symmetrize(t)
	tv, tz := lapack.JacobiEigSym(t)
	// Sort by |λ| descending to honor "largest magnitude".
	order := magnitudeOrder(tv)
	vals = make([]float64, k)
	sel := mat.NewDense(b, k)
	for j := 0; j < k; j++ {
		vals[j] = tv[order[j]]
		for i := 0; i < b; i++ {
			sel.Set(i, j, tz.At(i, order[j]))
		}
	}
	vecs = mat.NewDense(n, k)
	blas.Gemm(parallel.Default, blas.NoTrans, blas.NoTrans, 1, x, sel, 0, vecs)
	return vals, vecs, nil
}

// orthonormalize replaces the columns of x with an orthonormal basis of
// their span. CholeskyQR2 handles the generic case; if the block has
// (numerically) collapsed, pivoted QR identifies the surviving directions
// and dead columns are replaced by fresh random vectors, re-orthogonalized.
func orthonormalize(x *mat.Dense, rng *rand.Rand) error {
	if _, err := core.CholQR2InPlace(parallel.Default, x); err == nil {
		return nil
	}
	// Rank collapse: pivoted QR + replenishment.
	for attempt := 0; attempt < 8; attempt++ {
		res, err := core.IteCholQRCP(parallel.Default, x, core.DefaultPivotTol, x.Cols)
		if err != nil {
			return err
		}
		rank := core.NumericalRank(res.R, 1e-12)
		if rank == x.Cols {
			x.Copy(res.Q)
			return nil
		}
		// Keep the surviving directions, replace the dead columns with
		// random vectors and try again; the next CholeskyQR2
		// orthogonalizes them against the surviving basis.
		x.Slice(0, x.Rows, 0, rank).Copy(res.Q.Slice(0, x.Rows, 0, rank))
		for j := rank; j < x.Cols; j++ {
			for i := 0; i < x.Rows; i++ {
				x.Set(i, j, rng.NormFloat64())
			}
		}
		if _, err := core.CholQR2InPlace(parallel.Default, x); err == nil {
			return nil
		}
	}
	return fmt.Errorf("subspace: could not orthonormalize iterate block")
}

func symmetrize(t *mat.Dense) {
	for i := 0; i < t.Rows; i++ {
		for j := i + 1; j < t.Cols; j++ {
			v := 0.5 * (t.At(i, j) + t.At(j, i))
			t.Set(i, j, v)
			t.Set(j, i, v)
		}
	}
}

func magnitudeOrder(vals []float64) []int {
	order := make([]int, len(vals))
	for i := range order {
		order[i] = i
	}
	abs := func(x float64) float64 {
		if x < 0 {
			return -x
		}
		return x
	}
	// Insertion sort by |λ| descending (block sizes are small).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && abs(vals[order[j]]) > abs(vals[order[j-1]]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// RangeFinder returns an orthonormal n×k basis approximately spanning the
// dominant column space of the (m×n, possibly rectangular) matrix a,
// computed by q power iterations with pivoted-QR re-orthogonalization —
// the randomized range finder used by low-rank approximation pipelines.
func RangeFinder(a *mat.Dense, k, power int, rng *rand.Rand) (*mat.Dense, error) {
	m, n := a.Rows, a.Cols
	if k < 1 || k > min(m, n) {
		panic(fmt.Sprintf("subspace: RangeFinder k=%d outside [1,%d]", k, min(m, n)))
	}
	omega := mat.NewDense(n, k)
	for i := range omega.Data {
		omega.Data[i] = rng.NormFloat64()
	}
	y := mat.NewDense(m, k)
	blas.Gemm(parallel.Default, blas.NoTrans, blas.NoTrans, 1, a, omega, 0, y)
	for q := 0; q < power; q++ {
		if err := orthonormalize(y, rng); err != nil {
			return nil, err
		}
		z := mat.NewDense(n, k)
		blas.Gemm(parallel.Default, blas.Trans, blas.NoTrans, 1, a, y, 0, z)
		blas.Gemm(parallel.Default, blas.NoTrans, blas.NoTrans, 1, a, z, 0, y)
	}
	if err := orthonormalize(y, rng); err != nil {
		return nil, err
	}
	return y, nil
}
