// Package testmat generates the synthetic test matrices of the paper's
// evaluation (§IV-A3): A = U·Σ·V with Haar-random orthogonal factors and a
// geometrically graded singular-value profile
//
//	σ_i = σ^((i−1)/(r−1))   for 1 ≤ i ≤ r,
//	σ_i = 10⁻¹⁶             for r+1 ≤ i ≤ n,
//
// so κ₂ of the leading rank-r part is 1/σ and the trailing n−r directions
// sit at roundoff level (numerical rank r).
package testmat

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/parallel"
	"repro/mat"
)

// TrailingSigma is the singular value assigned to directions beyond the
// numerical rank, per Eq. (17) of the paper.
const TrailingSigma = 1e-16

// SigmaProfile returns the paper's singular-value profile (Eq. 17) for a
// rank-r n-column matrix with smallest leading singular value sigma.
func SigmaProfile(n, r int, sigma float64) []float64 {
	if r < 1 || r > n {
		panic(fmt.Sprintf("testmat: rank %d outside [1,%d]", r, n))
	}
	if sigma <= 0 || sigma > 1 {
		panic(fmt.Sprintf("testmat: sigma %g outside (0,1]", sigma))
	}
	sv := make([]float64, n)
	for i := 0; i < r; i++ {
		if r == 1 {
			sv[i] = 1
		} else {
			sv[i] = math.Pow(sigma, float64(i)/float64(r-1))
		}
	}
	for i := r; i < n; i++ {
		sv[i] = TrailingSigma
	}
	return sv
}

// RandomOrtho returns an m×n (m ≥ n) matrix with orthonormal columns,
// Haar-distributed, via Householder QR of a Gaussian matrix with the sign
// correction that makes the distribution exactly uniform.
func RandomOrtho(rng *rand.Rand, m, n int) *mat.Dense {
	if m < n {
		panic(fmt.Sprintf("testmat: RandomOrtho needs m ≥ n, got %d×%d", m, n))
	}
	g := mat.NewDense(m, n)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	tau := make([]float64, n)
	lapack.Geqrf(parallel.Default, g, tau)
	signs := make([]float64, n)
	for j := 0; j < n; j++ {
		if g.At(j, j) < 0 {
			signs[j] = -1
		} else {
			signs[j] = 1
		}
	}
	lapack.Orgqr(parallel.Default, g, tau)
	for i := 0; i < m; i++ {
		row := g.Data[i*g.Stride : i*g.Stride+n]
		for j := range row {
			row[j] *= signs[j]
		}
	}
	return g
}

// WithSingularValues returns an m×n matrix with the given singular values
// (descending order is conventional but not required) and Haar-random
// singular vectors: A = U·diag(sv)·Vᵀ.
func WithSingularValues(rng *rand.Rand, m, n int, sv []float64) *mat.Dense {
	if len(sv) != n {
		panic(fmt.Sprintf("testmat: %d singular values for %d columns", len(sv), n))
	}
	u := RandomOrtho(rng, m, n)
	v := RandomOrtho(rng, n, n)
	// Scale the columns of U by sv, then multiply by Vᵀ.
	for i := 0; i < m; i++ {
		row := u.Data[i*u.Stride : i*u.Stride+n]
		for j := range row {
			row[j] *= sv[j]
		}
	}
	a := mat.NewDense(m, n)
	blas.Gemm(parallel.Default, blas.NoTrans, blas.Trans, 1, u, v, 0, a)
	return a
}

// Generate builds the paper's test matrix for the given shape, numerical
// rank r and grading parameter sigma (κ₂ of the leading block is 1/sigma).
func Generate(rng *rand.Rand, m, n, r int, sigma float64) *mat.Dense {
	return WithSingularValues(rng, m, n, SigmaProfile(n, r, sigma))
}

// GenerateWellConditioned builds a full-rank test matrix with κ₂ ≈ cond.
func GenerateWellConditioned(rng *rand.Rand, m, n int, cond float64) *mat.Dense {
	if cond < 1 {
		panic(fmt.Sprintf("testmat: condition number %g < 1", cond))
	}
	return Generate(rng, m, n, n, 1/cond)
}

// Kahan returns the n×n Kahan matrix K(θ) = diag(1, s, s², …)·(I − c·U)
// with s = sin θ, c = cos θ and U strictly upper triangular of ones — the
// classical stress test for rank-revealing pivoting: its graded column
// norms defeat naive norm downdating, and greedy QRCP famously
// overestimates its smallest singular value. perturb ≥ 0 adds a relative
// diagonal perturbation of that size to break exact ties (pass 0 for the
// textbook matrix).
func Kahan(rng *rand.Rand, n int, theta, perturb float64) *mat.Dense {
	s, c := math.Sin(theta), math.Cos(theta)
	k := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		d := math.Pow(s, float64(i))
		if perturb > 0 {
			d *= 1 + perturb*rng.NormFloat64()
		}
		k.Set(i, i, d)
		for j := i + 1; j < n; j++ {
			k.Set(i, j, -c*d)
		}
	}
	return k
}

// KahanTall embeds Kahan(n, θ) in an m×n matrix by Haar-random orthogonal
// row mixing: the singular structure is preserved while the shape becomes
// tall-skinny, matching this library's problem setting.
func KahanTall(rng *rand.Rand, m, n int, theta, perturb float64) *mat.Dense {
	k := Kahan(rng, n, theta, perturb)
	u := RandomOrtho(rng, m, n)
	a := mat.NewDense(m, n)
	blas.Gemm(parallel.Default, blas.NoTrans, blas.NoTrans, 1, u, k, 0, a)
	return a
}
