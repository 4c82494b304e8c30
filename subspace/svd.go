package subspace

import (
	"fmt"
	"math/rand"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/parallel"
	"repro/mat"
)

// SVDResult is a rank-k truncated singular value decomposition
// A ≈ U·diag(S)·Vᵀ.
type SVDResult struct {
	U *mat.Dense // m×k, orthonormal columns
	S []float64  // k singular values, descending
	V *mat.Dense // n×k, orthonormal columns
}

// RandSVD computes a rank-k truncated SVD by the randomized two-stage
// scheme (Halko–Martinsson–Tropp): the range finder builds an orthonormal
// basis Q of the dominant column space (with `power` subspace iterations
// for spectra with slow decay), the problem is projected to the small
// k×n matrix B = Qᵀ·A, and an exact one-sided Jacobi SVD of B finishes:
// A ≈ (Q·U_B)·S·Vᵀ.
//
// Every orthogonalization inside the range finder runs on the library's
// Cholesky-QR/pivoted-QR engine.
func RandSVD(a *mat.Dense, k, power int, rng *rand.Rand) (*SVDResult, error) {
	m, n := a.Rows, a.Cols
	if k < 1 || k > min(m, n) {
		panic(fmt.Sprintf("subspace: RandSVD k=%d outside [1,%d]", k, min(m, n)))
	}
	q, err := RangeFinder(a, k, power, rng)
	if err != nil {
		return nil, err
	}
	// B = Qᵀ·A (k×n).
	b := mat.NewDense(k, n)
	blas.Gemm(parallel.Default, blas.Trans, blas.NoTrans, 1, q, a, 0, b)
	// Small exact SVD of Bᵀ (n×k, tall): Bᵀ = V·S·U_Bᵀ.
	v, s, ub := lapack.JacobiSVD(b.T())
	// U = Q·U_B.
	u := mat.NewDense(m, k)
	blas.Gemm(parallel.Default, blas.NoTrans, blas.NoTrans, 1, q, ub, 0, u)
	return &SVDResult{U: u, S: s, V: v}, nil
}
