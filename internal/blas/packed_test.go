package blas

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/mat"
)

// Tests for the tiled Level-3 paths: GEMM shapes straddle the kBlock
// summation tile, so full tiles, the ragged last tile and the single-tile
// case all run, on strided views; the SYRK runs at widths past 256
// columns.

func matsClose(t *testing.T, got, want *mat.Dense, tol float64, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: %d×%d vs %d×%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			g, w := got.At(i, j), want.At(i, j)
			if math.Abs(g-w) > tol*(1+math.Abs(w)) {
				t.Fatalf("%s: (%d,%d) got %g want %g", label, i, j, g, w)
			}
		}
	}
}

// TestGemmNNPackedWideN runs A·B, and A·Bᵀ on its packed Bᵀ, across the
// kBlock boundary, on wide outputs.
func TestGemmNNPackedWideN(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range []struct{ m, k, n int }{
		{37, kBlock + 13, 277},
		{5, 3, 257},
		{11, kBlock, 519},
		{6, 2*kBlock + 3, 9},
	} {
		a := randDenseStrided(rng, sh.m, sh.k)
		b := randDenseStrided(rng, sh.k, sh.n)
		c := randDense(rng, sh.m, sh.n)
		want := c.Clone()
		Gemm(nil, NoTrans, NoTrans, 1.5, a, b, 0.5, c)
		naiveGemm(NoTrans, NoTrans, 1.5, a, b, 0.5, want)
		matsClose(t, c, want, 1e-12*float64(sh.k), "gemm NN")

		bt := randDenseStrided(rng, sh.n, sh.k)
		c = randDense(rng, sh.m, sh.n)
		want = c.Clone()
		Gemm(nil, NoTrans, Trans, -0.75, a, bt, 1, c)
		naiveGemm(NoTrans, Trans, -0.75, a, bt, 1, want)
		matsClose(t, c, want, 1e-12*float64(sh.k), "gemm NT")
	}
}

func TestSyrkWideNBlockedPath(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{257, 293} {
		m := 19 // small m keeps the naive reference cheap
		a := randDenseStrided(rng, m, n)
		c := randDense(rng, n, n)
		want := c.Clone()
		SyrkUpperTrans(nil, a, c)
		naiveSyrkUpper(-1, a, 1, want)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				g, w := c.At(i, j), want.At(i, j)
				if math.Abs(g-w) > 1e-12*(1+math.Abs(w)) {
					t.Fatalf("n=%d: (%d,%d) got %g want %g", n, i, j, g, w)
				}
			}
		}
		// Strict lower triangle untouched.
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if c.At(i, j) != want.At(i, j) {
					t.Fatalf("n=%d: lower (%d,%d) modified", n, i, j)
				}
			}
		}
	}
}

// TestSyrkWideNParallelMatchesSequential: on one reduction slot (400
// rows) and on several (4500), every width gives the same bits.
func TestSyrkWideNParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 269
	for _, m := range []int{400, 4500} {
		a := randDense(rng, m, n)
		c1 := mat.NewDense(n, n)
		c2 := mat.NewDense(n, n)
		SyrkUpperTrans(parallel.NewEngine(4), a, c1)
		SyrkUpperTrans(parallel.NewEngine(1), a, c2)
		sameBits(t, "syrk parallel vs sequential", c1, c2)
	}
}

// TestMulFlopsSaturates: the threshold helper must clamp instead of
// wrapping for products that overflow int.
func TestMulFlopsSaturates(t *testing.T) {
	huge := int(math.MaxInt64 / 2)
	if got := mulFlops(2, huge, 3); got != math.MaxInt64 {
		t.Fatalf("mulFlops overflow: got %d", got)
	}
	if got := mulFlops(2, 10, 20, 30); got != 12000 {
		t.Fatalf("mulFlops exact: got %d, want 12000", got)
	}
	if got := mulFlops(7, 0, 1<<62); got != 0 {
		t.Fatalf("mulFlops zero: got %d", got)
	}
	if got := satMul(1<<32, 1<<32); got != math.MaxInt64 {
		t.Fatalf("satMul overflow: got %d", got)
	}
}

// TestGramLargeStillAllocFree guards the allocation-free invariant of the
// sequential Gram/TRSM hot path that Ite-CholQR-CP iterates over.
func TestGramLargeStillAllocFree(t *testing.T) {
	seq := parallel.NewEngine(1)
	rng := rand.New(rand.NewSource(12))
	a := randDense(rng, 2000, 64)
	w := mat.NewDense(64, 64)
	r := mat.NewDense(64, 64)
	for i := 0; i < 64; i++ {
		r.Set(i, i, 1+float64(i))
		for j := i + 1; j < 64; j++ {
			r.Set(i, j, 0.01)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		Gram(seq, w, a)
		TrsmRightUpperNoTrans(seq, a, r)
	})
	if allocs > 0 {
		t.Fatalf("sequential Gram+TRSM allocated %.1f times per run, want 0", allocs)
	}
}
