package lapack

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/mat"
)

// randSPD builds a well-conditioned symmetric positive definite matrix
// A = BᵀB + n·I.
func randSPD(rng *rand.Rand, n int) *mat.Dense {
	b := mat.NewDense(n+3, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	w := mat.NewDense(n, n)
	blas.Gram(parallel.Default, w, b)
	for i := 0; i < n; i++ {
		w.Set(i, i, w.At(i, i)+float64(n))
	}
	return w
}

func TestPotrfUpperReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 7, 63, 64, 65, 130, 200} {
		w := randSPD(rng, n)
		r := w.Clone()
		if err := PotrfUpper(parallel.Default, r); err != nil {
			t.Fatalf("n=%d: unexpected error %v", n, err)
		}
		ZeroLower(r)
		// Check RᵀR == W.
		chk := mat.NewDense(n, n)
		blas.Gemm(parallel.Default, blas.Trans, blas.NoTrans, 1, r, r, 0, chk)
		scale := w.MaxAbs()
		if !mat.EqualApprox(chk, w, 1e-12*scale) {
			t.Fatalf("n=%d: RᵀR != W (max err scale %g)", n, scale)
		}
		if !r.IsUpperTriangular(0) {
			t.Fatalf("n=%d: R not upper triangular", n)
		}
	}
}

// TestPotrfUpperDeterministicAcrossWidths: the trailing SYRK updates
// reduce over a fixed row partition, so the factor is bit-identical for
// every engine width, also past one 64-column panel.
func TestPotrfUpperDeterministicAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{128, 200} {
		w := randSPD(rng, n)
		var ref *mat.Dense
		for _, width := range []int{1, 2, 3} {
			r := w.Clone()
			if err := PotrfUpper(parallel.NewEngine(width), r); err != nil {
				t.Fatalf("n=%d width %d: %v", n, width, err)
			}
			if ref == nil {
				ref = r
				continue
			}
			for i := range r.Data {
				if math.Float64bits(r.Data[i]) != math.Float64bits(ref.Data[i]) {
					t.Fatalf("n=%d width %d: entry %d differs from width 1", n, width, i)
				}
			}
		}
	}
}

func TestPotrfLowerUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	n := 80
	w := randSPD(rng, n)
	w.Set(n-1, 0, 12345) // poison the strict lower triangle
	r := w.Clone()
	if err := PotrfUpper(parallel.Default, r); err != nil {
		t.Fatal(err)
	}
	if r.At(n-1, 0) != 12345 {
		t.Fatal("PotrfUpper modified the strict lower triangle")
	}
}

func TestPotrfNotPSD(t *testing.T) {
	w := mat.Identity(4)
	w.Set(2, 2, -1)
	err := PotrfUpper(parallel.Default, w.Clone())
	var perr *NotPositiveDefiniteError
	if !errors.As(err, &perr) {
		t.Fatalf("want NotPositiveDefiniteError, got %v", err)
	}
	if perr.Index != 2 {
		t.Fatalf("breakdown index = %d, want 2", perr.Index)
	}
	if perr.Error() == "" {
		t.Fatal("empty error message")
	}
}

func TestPotrfBreakdownIndexAcrossBlocks(t *testing.T) {
	// A semidefinite matrix whose breakdown occurs past the first block.
	rng := rand.New(rand.NewSource(33))
	n := potrfBlock + 10
	b := mat.NewDense(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	// Make column potrfBlock+3 a copy of column 0 => exact rank deficiency.
	dup := potrfBlock + 3
	for i := 0; i < n; i++ {
		b.Set(i, dup, b.At(i, 0))
	}
	w := mat.NewDense(n, n)
	blas.Gram(parallel.Default, w, b)
	err := PotrfUpper(parallel.Default, w)
	var perr *NotPositiveDefiniteError
	if !errors.As(err, &perr) {
		t.Fatalf("want breakdown, got %v", err)
	}
	if perr.Index < potrfBlock {
		t.Fatalf("breakdown index %d should be in a later block", perr.Index)
	}
}

func TestPotrfPanicsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PotrfUpper(parallel.Default, mat.NewDense(3, 4)) //nolint:errcheck
}

func TestZeroLower(t *testing.T) {
	a := mat.NewDense(3, 3)
	for i := range a.Data {
		a.Data[i] = 1
	}
	ZeroLower(a)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 1.0
			if j < i {
				want = 0
			}
			if a.At(i, j) != want {
				t.Fatalf("ZeroLower at (%d,%d) = %v", i, j, a.At(i, j))
			}
		}
	}
}
