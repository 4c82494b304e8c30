package subspace

import (
	"math"
	"math/rand"
	"testing"

	"repro/mat"
	"repro/metrics"
)

func TestCSR(t *testing.T) {
	// 2×2 with a duplicate entry summed.
	c := NewCSR(2, []Triplet{{0, 0, 1}, {0, 1, 2}, {0, 1, 3}, {1, 0, 4}})
	if len(c.Val) != 3 {
		t.Fatalf("nnz = %d, want 3 (duplicates summed)", len(c.Val))
	}
	x := mat.NewDenseData(2, 2, []float64{1, 0, 1, 1})
	out := mat.NewDense(2, 2)
	c.Apply(out, x)
	if out.At(0, 0) != 6 || out.At(0, 1) != 5 || out.At(1, 0) != 4 || out.At(1, 1) != 0 {
		t.Fatalf("Apply = %v", out.Data)
	}
	mustPanicS(t, func() { NewCSR(2, []Triplet{{2, 0, 1}}) })
	mustPanicS(t, func() { c.Apply(mat.NewDense(3, 1), mat.NewDense(2, 1)) })
}

func TestPathLaplacianSpectrum(t *testing.T) {
	// Known eigenvalues: 2−2cos(kπ/n), largest ≈ 4 for large n. The top
	// of the Laplacian spectrum is tightly clustered, so plain subspace
	// iteration converges slowly — the tolerance here checks integration
	// (CSR operator + eigensolver), not asymptotic convergence.
	n := 200
	lap := PathLaplacian(n)
	rng := rand.New(rand.NewSource(306))
	vals, vecs, err := SymEigs(lap, 2, &EigOptions{Iterations: 400, Oversample: 12, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	want0 := 2 - 2*math.Cos(math.Pi*float64(n-1)/float64(n))
	if math.Abs(vals[0]-want0) > 1e-3 {
		t.Fatalf("λ_max = %v, want ≈ %v", vals[0], want0)
	}
	if e := metrics.Orthogonality(vecs); e > 1e-12 {
		t.Fatalf("eigenvectors degraded: %g", e)
	}
}

func mustPanicS(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
