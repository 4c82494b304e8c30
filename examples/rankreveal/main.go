// Rank determination and safe orthogonal-basis extraction for a set of
// nearly dependent vectors — the Krylov/block-orthogonalization workload
// from the paper's introduction.
//
// Power iterates v, Av, A²v, … lose linear independence exponentially
// fast. Plain Cholesky QR breaks down on such a basis, and even
// CholeskyQR2 cannot survive κ₂ ≳ 1e8. QRCP both (a) reveals how many of
// the vectors are actually independent and (b) returns an orthonormal
// basis for their span, pivoted so the well-conditioned directions come
// first.
package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"

	tsqrcp "repro"
	"repro/mat"
	"repro/metrics"
)

func main() {
	const (
		m     = 8000 // vector length
		steps = 30   // Krylov vectors
	)
	rng := rand.New(rand.NewSource(3))

	// Krylov sequence of a diagonal operator with decaying spectrum:
	// iterates align with the dominant eigenvector, so the block becomes
	// numerically rank deficient.
	lambda := make([]float64, m)
	for i := range lambda {
		lambda[i] = 1 / (1 + 0.25*float64(i))
	}
	krylov := mat.NewDense(m, steps)
	v := make([]float64, m)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	for j := 0; j < steps; j++ {
		krylov.SetCol(j, v)
		for i := range v {
			v[i] *= lambda[i]
		}
	}

	// Neither Cholesky QR nor CholeskyQR2 can orthogonalize this block;
	// either surviving it breaks the contract this program shows, so it
	// exits 1.
	if _, err := tsqrcp.CholeskyQR(krylov); !errors.Is(err, tsqrcp.ErrBreakdown) {
		fmt.Fprintf(os.Stderr, "CholeskyQR : expected ErrBreakdown, got %v\n", err)
		os.Exit(1)
	}
	fmt.Println("CholeskyQR : breakdown, as expected")
	if _, err := tsqrcp.CholeskyQR2(krylov); !errors.Is(err, tsqrcp.ErrBreakdown) {
		fmt.Fprintf(os.Stderr, "CholeskyQR2: expected ErrBreakdown, got %v\n", err)
		os.Exit(1)
	}
	fmt.Println("CholeskyQR2: breakdown, as expected")

	// QRCP handles it, reveals the usable rank, and the leading columns of
	// Q form a well-conditioned orthonormal basis of the Krylov space.
	f, err := tsqrcp.QRCP(krylov, nil)
	if err != nil {
		panic(err)
	}
	rank := f.NumericalRank(1e-14)
	fmt.Printf("QRCP       : ok, %d pivot iterations\n", f.Iterations)
	fmt.Printf("  numerical rank of %d Krylov vectors: %d\n", steps, rank)
	fmt.Printf("  orthogonality of basis: %.2e\n", metrics.Orthogonality(f.Q))
	fmt.Printf("  residual              : %.2e\n",
		metrics.Residual(krylov, f.Q, f.R, f.Perm))
	fmt.Printf("  diagonal decay |R(j,j)|: %.1e (j=0) → %.1e (j=%d) → %.1e (j=%d)\n",
		f.R.At(0, 0), f.R.At(rank-1, rank-1), rank-1,
		f.R.At(steps-1, steps-1), steps-1)
	fmt.Printf("  first pivots (iteration order of independence): %v\n", f.Perm[:8])
}
