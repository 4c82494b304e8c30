package subspace_test

import (
	"fmt"
	"math"
	"math/rand"

	"repro/mat"
	"repro/subspace"
)

// ExampleSymEigs computes dominant eigenpairs of a sparse graph Laplacian
// with block subspace iteration.
func ExampleSymEigs() {
	// A 3-cycle graph Laplacian: eigenvalues 0, 3, 3.
	lap := subspace.NewCSR(3, []subspace.Triplet{
		{Row: 0, Col: 0, Val: 2}, {Row: 0, Col: 1, Val: -1}, {Row: 0, Col: 2, Val: -1},
		{Row: 1, Col: 0, Val: -1}, {Row: 1, Col: 1, Val: 2}, {Row: 1, Col: 2, Val: -1},
		{Row: 2, Col: 0, Val: -1}, {Row: 2, Col: 1, Val: -1}, {Row: 2, Col: 2, Val: 2},
	})
	rng := rand.New(rand.NewSource(1))
	vals, _, err := subspace.SymEigs(lap, 2, &subspace.EigOptions{Iterations: 50, Rng: rng})
	if err != nil {
		panic(err)
	}
	fmt.Printf("λ = %.4f, %.4f\n", vals[0], vals[1])
	// Output:
	// λ = 3.0000, 3.0000
}

// ExampleRandSVD compresses a low-rank matrix with the randomized
// truncated SVD.
func ExampleRandSVD() {
	// Rank-1 matrix a·bᵀ with ‖a‖=‖b‖ chosen so σ₁ = 6.
	m, n := 40, 10
	a := mat.NewDense(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, 3*math.Sin(float64(i+1))*math.Cos(float64(j+1)))
		}
	}
	rng := rand.New(rand.NewSource(3))
	res, err := subspace.RandSVD(a, 2, 1, rng)
	if err != nil {
		panic(err)
	}
	fmt.Printf("σ₂/σ₁ < 1e-12: %v\n", res.S[1] < 1e-12*res.S[0])
	// Output:
	// σ₂/σ₁ < 1e-12: true
}
