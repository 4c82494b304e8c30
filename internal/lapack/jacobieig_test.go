package lapack

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/mat"
)

func TestJacobiEigSymDiagonal(t *testing.T) {
	a := mat.NewDense(4, 4)
	for i, v := range []float64{3, -7, 1, 5} {
		a.Set(i, i, v)
	}
	vals, vecs := JacobiEigSym(a)
	want := []float64{5, 3, 1, -7}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-13 {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
	// Eigenvectors of a diagonal matrix are signed unit vectors.
	for j := 0; j < 4; j++ {
		nz := 0
		for i := 0; i < 4; i++ {
			if math.Abs(vecs.At(i, j)) > 1e-12 {
				nz++
			}
		}
		if nz != 1 {
			t.Fatalf("eigvec %d not axis-aligned", j)
		}
	}
}

func TestJacobiEigSymReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(261))
	for _, n := range []int{1, 2, 5, 12, 30} {
		// Random symmetric matrix.
		a := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs := JacobiEigSym(a)
		// Check V·diag(λ)·Vᵀ == A.
		vd := vecs.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				vd.Set(i, j, vd.At(i, j)*vals[j])
			}
		}
		rec := mat.NewDense(n, n)
		blas.Gemm(parallel.Default, blas.NoTrans, blas.Trans, 1, vd, vecs, 0, rec)
		if !mat.EqualApprox(rec, a, 1e-11*(1+a.MaxAbs())) {
			t.Fatalf("n=%d: V·Λ·Vᵀ != A", n)
		}
		// V orthogonal.
		g := mat.NewDense(n, n)
		blas.Gram(parallel.Default, g, vecs)
		if !mat.EqualApprox(g, mat.Identity(n), 1e-12) {
			t.Fatalf("n=%d: V not orthogonal", n)
		}
		// Sorted descending.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-13 {
				t.Fatalf("n=%d: eigenvalues not sorted: %v", n, vals)
			}
		}
	}
}

func TestJacobiEigSymZero(t *testing.T) {
	vals, vecs := JacobiEigSym(mat.NewDense(3, 3))
	for _, v := range vals {
		if v != 0 {
			t.Fatal("zero matrix must have zero eigenvalues")
		}
	}
	if !mat.EqualApprox(vecs, mat.Identity(3), 0) {
		t.Fatal("zero matrix eigenvectors should be identity")
	}
}

func TestJacobiEigSymMatchesSVDOnPSD(t *testing.T) {
	// For B = AᵀA, eigenvalues are squared singular values of A.
	rng := rand.New(rand.NewSource(262))
	a := randMat(rng, 40, 8)
	w := mat.NewDense(8, 8)
	blas.Gram(parallel.Default, w, a)
	vals, _ := JacobiEigSym(w)
	sv := JacobiSVDValues(a)
	for i := range sv {
		if math.Abs(vals[i]-sv[i]*sv[i]) > 1e-10*(1+vals[0]) {
			t.Fatalf("λ_%d = %g, σ² = %g", i, vals[i], sv[i]*sv[i])
		}
	}
}

func TestJacobiEigSymPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	JacobiEigSym(mat.NewDense(2, 3))
}
