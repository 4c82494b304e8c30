package subspace

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/mat"
	"repro/metrics"
	"repro/testmat"
)

// symWithSpectrum builds A = V·diag(vals)·Vᵀ with Haar-random V.
func symWithSpectrum(rng *rand.Rand, vals []float64) *mat.Dense {
	n := len(vals)
	v := testmat.RandomOrtho(rng, n, n)
	vd := v.Clone()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			vd.Set(i, j, vd.At(i, j)*vals[j])
		}
	}
	a := mat.NewDense(n, n)
	blas.Gemm(parallel.Default, blas.NoTrans, blas.Trans, 1, vd, v, 0, a)
	return a
}

func TestSymEigsRecoversSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(251))
	spec := []float64{10, 8, 5, 3, 1, 0.5, 0.2, 0.1, 0.05, 0.01}
	a := symWithSpectrum(rng, spec)
	op := MatOperator{A: a}
	k := 4
	vals, vecs, err := SymEigs(op, k, &EigOptions{Iterations: 60, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < k; j++ {
		if math.Abs(vals[j]-spec[j]) > 1e-8*spec[0] {
			t.Fatalf("λ_%d = %g, want %g (all: %v)", j, vals[j], spec[j], vals)
		}
	}
	// Eigenvector residuals ‖A·v − λ·v‖.
	av := mat.NewDense(a.Rows, k)
	blas.Gemm(parallel.Default, blas.NoTrans, blas.NoTrans, 1, a, vecs, 0, av)
	for j := 0; j < k; j++ {
		res := 0.0
		for i := 0; i < a.Rows; i++ {
			d := av.At(i, j) - vals[j]*vecs.At(i, j)
			res += d * d
		}
		if math.Sqrt(res) > 1e-7*spec[0] {
			t.Fatalf("eigvec %d residual %g", j, math.Sqrt(res))
		}
	}
	if e := metrics.Orthogonality(vecs); e > 1e-12 {
		t.Fatalf("eigenvectors not orthonormal: %g", e)
	}
}

func TestSymEigsNegativeEigenvalues(t *testing.T) {
	// Largest-magnitude selection must pick the -9 before the +4.
	rng := rand.New(rand.NewSource(252))
	spec := []float64{-9, 4, 2, 1, 0.5, 0.1}
	// symWithSpectrum expects any values; magnitudes drive convergence.
	a := symWithSpectrum(rng, spec)
	vals, _, err := SymEigs(MatOperator{A: a}, 2, &EigOptions{Iterations: 80, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-(-9)) > 1e-7 || math.Abs(vals[1]-4) > 1e-6 {
		t.Fatalf("vals = %v, want [-9 4]", vals)
	}
}

func TestSymEigsConvergedSubspaceCollapse(t *testing.T) {
	// One dominant eigenvalue far above the rest: iterate blocks align
	// quickly and the orthonormalization must survive the collapse via
	// the pivoted-QR fallback.
	rng := rand.New(rand.NewSource(253))
	spec := make([]float64, 40)
	spec[0] = 1e8
	for i := 1; i < len(spec); i++ {
		spec[i] = 1 / float64(i)
	}
	a := symWithSpectrum(rng, spec)
	vals, vecs, err := SymEigs(MatOperator{A: a}, 3, &EigOptions{Iterations: 100, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1e8)/1e8 > 1e-10 {
		t.Fatalf("dominant λ = %g, want 1e8", vals[0])
	}
	if e := metrics.Orthogonality(vecs); e > 1e-12 {
		t.Fatalf("basis degraded: %g", e)
	}
}

func TestSymEigsPanics(t *testing.T) {
	a := mat.Identity(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SymEigs(MatOperator{A: a}, 5, nil) //nolint:errcheck
}

func TestRangeFinderCapturesDominantSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(254))
	m, n, k := 300, 40, 6
	a := testmat.Generate(rng, m, n, k, 1e-1) // numerical rank k
	q, err := RangeFinder(a, k, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if e := metrics.Orthogonality(q); e > 1e-12 {
		t.Fatalf("basis not orthonormal: %g", e)
	}
	// ‖A − Q·Qᵀ·A‖ should be at the σ_(k+1) level.
	qta := mat.NewDense(k, n)
	blas.Gemm(parallel.Default, blas.Trans, blas.NoTrans, 1, q, a, 0, qta)
	diff := a.Clone()
	blas.Gemm(parallel.Default, blas.NoTrans, blas.NoTrans, -1, q, qta, 1, diff)
	if rel := diff.FrobeniusNorm() / a.FrobeniusNorm(); rel > 1e-10 {
		t.Fatalf("range capture error %g for exact-rank matrix", rel)
	}
}

func TestRangeFinderPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(255))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RangeFinder(mat.NewDense(10, 4), 5, 1, rng) //nolint:errcheck
}

func TestMatOperator(t *testing.T) {
	a := mat.NewDenseData(2, 2, []float64{1, 2, 3, 4})
	op := MatOperator{A: a}
	if op.Dim() != 2 {
		t.Fatal("Dim wrong")
	}
	x := mat.NewDenseData(2, 1, []float64{1, 1})
	dst := mat.NewDense(2, 1)
	op.Apply(dst, x)
	if dst.At(0, 0) != 3 || dst.At(1, 0) != 7 {
		t.Fatalf("Apply wrong: %v", dst.Data)
	}
}
