package blas

import (
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/mat"
)

func TestGemvNoTrans(t *testing.T) {
	a := mat.NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	y := []float64{10, 20}
	Gemv(parallel.Default, NoTrans, 2, a, []float64{1, 1, 1}, 3, y)
	// y = 2*A*[1,1,1] + 3*y = [2*6+30, 2*15+60]
	if y[0] != 42 || y[1] != 90 {
		t.Fatalf("Gemv N: y = %v", y)
	}
}

func TestGemvTrans(t *testing.T) {
	a := mat.NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	y := []float64{1, 1, 1}
	Gemv(parallel.Default, Trans, 1, a, []float64{1, 2}, 0, y)
	// Aᵀ[1,2] = [1+8, 2+10, 3+12]
	want := []float64{9, 12, 15}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Gemv T: y = %v, want %v", y, want)
		}
	}
}

func TestGemvShapePanics(t *testing.T) {
	a := mat.NewDense(2, 3)
	mustPanicB(t, func() { Gemv(parallel.Default, NoTrans, 1, a, []float64{1, 2}, 0, []float64{0, 0}) })
	mustPanicB(t, func() { Gemv(parallel.Default, Trans, 1, a, []float64{1, 2, 3}, 0, []float64{0, 0}) })
}

func TestGemvLargeParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randDenseStrided(rng, 4096, 33)
	x := make([]float64, 4096)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	yPar := make([]float64, 33)
	Gemv(parallel.NewEngine(4), Trans, 1.5, a, x, 0, yPar)

	ySeq := make([]float64, 33)
	Gemv(parallel.NewEngine(1), Trans, 1.5, a, x, 0, ySeq)

	// 4096 rows span two reduction slots; the slot reduction makes the
	// result bit-identical for every width.
	sameBits(t, "parallel Gemv T", mat.NewDenseData(1, 33, yPar), mat.NewDenseData(1, 33, ySeq))
}

func TestGer(t *testing.T) {
	a := mat.NewDense(2, 2)
	Ger(parallel.Default, 2, []float64{1, 2}, []float64{3, 4}, a)
	want := [][]float64{{6, 8}, {12, 16}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if a.At(i, j) != want[i][j] {
				t.Fatalf("Ger a = %v", a)
			}
		}
	}
	before := a.Clone()
	Ger(parallel.Default, 0, []float64{1, 2}, []float64{3, 4}, a)
	if !mat.EqualApprox(a, before, 0) {
		t.Fatal("Ger alpha=0 must be a no-op")
	}
	mustPanicB(t, func() { Ger(parallel.Default, 1, []float64{1}, []float64{1, 2}, a) })
}

func TestGerLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const m, n = 3000, 17
	a := randDenseStrided(rng, m, n)
	want := a.Clone()
	x := make([]float64, m)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for j := range y {
		y[j] = rng.NormFloat64()
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			want.Set(i, j, want.At(i, j)+0.5*x[i]*y[j])
		}
	}
	Ger(parallel.Default, 0.5, x, y, a)
	if !mat.EqualApprox(a, want, 1e-12) {
		t.Fatal("large parallel Ger disagrees with naive")
	}
}
