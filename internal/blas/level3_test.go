package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/mat"
)

func TestGemmAllTransCombos(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	combos := []struct{ tA, tB Transpose }{
		{NoTrans, NoTrans}, {Trans, NoTrans}, {NoTrans, Trans},
	}
	shapes := []struct{ m, n, k int }{
		{1, 1, 1}, {3, 4, 5}, {7, 2, 9}, {16, 16, 16}, {5, 31, 2},
	}
	for _, cb := range combos {
		for _, sh := range shapes {
			ar, ac := sh.m, sh.k
			if cb.tA == Trans {
				ar, ac = sh.k, sh.m
			}
			br, bc := sh.k, sh.n
			if cb.tB == Trans {
				br, bc = sh.n, sh.k
			}
			a := randDenseStrided(rng, ar, ac)
			b := randDenseStrided(rng, br, bc)
			c := randDenseStrided(rng, sh.m, sh.n)
			want := c.Clone()
			naiveGemm(cb.tA, cb.tB, 1.3, a, b, -0.7, want)
			Gemm(parallel.Default, cb.tA, cb.tB, 1.3, a, b, -0.7, c)
			if !mat.EqualApprox(c, want, 1e-10) {
				t.Fatalf("Gemm(nil, tA=%v,tB=%v) shape %+v disagrees with naive", cb.tA, cb.tB, sh)
			}
		}
	}
}

func TestGemmBetaZeroOverwritesGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randDense(rng, 4, 3)
	b := randDense(rng, 3, 5)
	c := mat.NewDense(4, 5)
	for i := range c.Data {
		c.Data[i] = 1e300 // must be overwritten, not scaled into Inf/NaN
	}
	want := mat.NewDense(4, 5)
	naiveGemm(NoTrans, NoTrans, 1, a, b, 0, want)
	Gemm(parallel.Default, NoTrans, NoTrans, 1, a, b, 0, c)
	if !mat.EqualApprox(c, want, 1e-12) {
		t.Fatal("beta=0 must fully overwrite C")
	}
}

func TestGemmAlphaZeroScalesOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randDense(rng, 3, 3)
	b := randDense(rng, 3, 3)
	c := randDense(rng, 3, 3)
	want := c.Clone()
	for i := range want.Data {
		want.Data[i] *= 2
	}
	Gemm(parallel.Default, NoTrans, NoTrans, 0, a, b, 2, c)
	if !mat.EqualApprox(c, want, 1e-14) {
		t.Fatal("alpha=0 must only scale C by beta")
	}
}

func TestGemmDimensionPanics(t *testing.T) {
	mustPanicB(t, func() {
		Gemm(parallel.Default, NoTrans, NoTrans, 1, mat.NewDense(2, 3), mat.NewDense(4, 2), 0, mat.NewDense(2, 2))
	})
	mustPanicB(t, func() {
		Gemm(parallel.Default, NoTrans, NoTrans, 1, mat.NewDense(2, 3), mat.NewDense(3, 2), 0, mat.NewDense(3, 2))
	})
	// Aᵀ·Bᵀ is not supported.
	mustPanicB(t, func() {
		Gemm(parallel.Default, Trans, Trans, 1, mat.NewDense(3, 2), mat.NewDense(2, 3), 0, mat.NewDense(2, 2))
	})
}

// TestGemmZeroBlockNotSkipped pins that no product is skipped for a zero
// factor: a block of A that is all zero still multiplies its rows of B. On finite B that can only flip the sign of a
// zero in C; an Inf or NaN in B turns the entries it meets into NaN.
func TestGemmZeroBlockNotSkipped(t *testing.T) {
	negZero := math.Copysign(0, -1)
	// Every row of B holds cols[j] in column j.
	b := mat.NewDense(4, 5)
	cols := []float64{1, -2, math.Inf(1), math.NaN(), 0}
	for l := 0; l < 4; l++ {
		for j, v := range cols {
			b.Set(l, j, v)
		}
	}
	for _, tA := range []Transpose{NoTrans, Trans} {
		a := mat.NewDense(4, 4) // all zero; Aᵀ too
		c := mat.NewDense(4, 5)
		for i := range c.Data {
			c.Data[i] = negZero
		}
		c.Set(3, 0, 7)
		want := c.Clone()
		Gemm(parallel.Default, tA, NoTrans, 1, a, b, 1, c)
		for i := 0; i < 4; i++ {
			for j, bj := range cols {
				got, old := c.At(i, j), want.At(i, j)
				switch {
				case math.IsInf(bj, 0) || math.IsNaN(bj):
					if !math.IsNaN(got) {
						t.Fatalf("tA=%v (%d,%d): 0·%v gave %v, want NaN", tA, i, j, bj, got)
					}
				case old == 0:
					if got != 0 {
						t.Fatalf("tA=%v (%d,%d): zero became %v", tA, i, j, got)
					}
				case math.Float64bits(got) != math.Float64bits(old):
					t.Fatalf("tA=%v (%d,%d): %v changed to %v", tA, i, j, old, got)
				}
			}
		}
	}
}

func TestGemmLargeParallelTall(t *testing.T) {
	// Tall-skinny Gram-type product on the parallel path: C = AᵀB.
	rng := rand.New(rand.NewSource(14))
	const m, n = 20000, 24
	a := randDense(rng, m, n)
	b := randDense(rng, m, n)
	c := mat.NewDense(n, n)
	Gemm(parallel.NewEngine(4), Trans, NoTrans, 1, a, b, 0, c)

	want := mat.NewDense(n, n)
	Gemm(parallel.NewEngine(1), Trans, NoTrans, 1, a, b, 0, want)

	if !mat.EqualApprox(c, want, 1e-8) {
		t.Fatal("parallel Aᵀ·B reduction disagrees with sequential")
	}
}

func TestGemmLargeParallelNN(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const m, k, n = 3000, 40, 40
	a := randDense(rng, m, k)
	b := randDense(rng, k, n)
	c := mat.NewDense(m, n)
	Gemm(parallel.NewEngine(4), NoTrans, NoTrans, 1, a, b, 0, c)
	want := mat.NewDense(m, n)
	Gemm(parallel.NewEngine(1), NoTrans, NoTrans, 1, a, b, 0, want)
	if !mat.EqualApprox(c, want, 1e-9) {
		t.Fatal("parallel NN gemm disagrees with sequential")
	}
}

func TestSyrkUpperTrans(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, m := range []int{1, 5, 100, 5000} {
		for _, n := range []int{1, 3, 17} {
			a := randDenseStrided(rng, m, n)
			c := randDenseStrided(rng, n, n)
			want := c.Clone()
			naiveSyrkUpper(-1, a, 1, want)
			SyrkUpperTrans(parallel.Default, a, c)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					got, exp := c.At(i, j), want.At(i, j)
					if j < i {
						if got != exp {
							t.Fatalf("Syrk m=%d n=%d modified lower (%d,%d)", m, n, i, j)
						}
						continue
					}
					if d := got - exp; d > 1e-9 || d < -1e-9 {
						t.Fatalf("Syrk m=%d n=%d at (%d,%d): %v vs %v", m, n, i, j, got, exp)
					}
				}
			}
		}
	}
}

func TestSyrkLowerUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randDense(rng, 50, 4)
	c := mat.NewDense(4, 4)
	c.Set(2, 0, 123)
	c.Set(3, 1, -7)
	SyrkUpperTrans(parallel.Default, a, c)
	if c.At(2, 0) != 123 || c.At(3, 1) != -7 {
		t.Fatal("SyrkUpperTrans modified the strict lower triangle")
	}
}

func TestGramSymmetricPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a := randDense(rng, 300, 12)
	w := mat.NewDense(12, 12)
	Gram(parallel.Default, w, a)
	for i := 0; i < 12; i++ {
		if w.At(i, i) < 0 {
			t.Fatalf("Gram diagonal negative at %d", i)
		}
		for j := 0; j < 12; j++ {
			if w.At(i, j) != w.At(j, i) {
				t.Fatalf("Gram not symmetric at (%d,%d)", i, j)
			}
		}
	}
	want := mat.NewDense(12, 12)
	naiveGemm(Trans, NoTrans, 1, a, a, 0, want)
	if !mat.EqualApprox(w, want, 1e-9) {
		t.Fatal("Gram disagrees with AᵀA")
	}
}

func TestTrsmRightUpperNoTrans(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, m := range []int{1, 7, 2000} {
		for _, n := range []int{1, 4, 13} {
			r := upperTriangular(rng, n)
			b := randDenseStrided(rng, m, n)
			orig := b.Clone()
			TrsmRightUpperNoTrans(parallel.Default, b, r)
			// Check B_new · R == B_old.
			prod := mat.NewDense(m, n)
			naiveGemm(NoTrans, NoTrans, 1, b, r, 0, prod)
			if !mat.EqualApprox(prod, orig, 1e-8) {
				t.Fatalf("Trsm right m=%d n=%d: X·R != B", m, n)
			}
		}
	}
}

// TestTrsmRightUpperNoTransDeterministicAcrossWidths: every row is solved
// with the same arithmetic wherever the engine's row chunks fall, so
// each width gives the same bits. The row counts are not multiples of
// 4·width, so chunks end in 1–3 rows outside any 4-row quad.
func TestTrsmRightUpperNoTransDeterministicAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, sh := range []struct{ m, n int }{{1001, 16}, {5003, 13}, {4099, 64}} {
		b0 := randDense(rng, sh.m, sh.n)
		r := randUpperWellCond(rng, sh.n)
		var ref *mat.Dense
		for _, w := range []int{1, 2, 3, 7} {
			b := b0.Clone()
			TrsmRightUpperNoTrans(parallel.NewEngine(w), b, r)
			if ref == nil {
				ref = b
				continue
			}
			bitsEqualDense(t, fmt.Sprintf("m=%d n=%d width %d vs 1", sh.m, sh.n, w), b, ref)
		}
	}
}

func TestTrsmLeftUpperTrans(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	n, cols := 9, 6
	r := upperTriangular(rng, n)
	b := randDenseStrided(rng, n, cols)
	orig := b.Clone()
	TrsmLeftUpperTrans(r, b)
	// Rᵀ·X should equal the original B.
	prod := mat.NewDense(n, cols)
	naiveGemm(Trans, NoTrans, 1, r, b, 0, prod)
	if !mat.EqualApprox(prod, orig, 1e-9) {
		t.Fatal("TrsmLeftUpperTrans: Rᵀ·X != B")
	}
}

func TestTrsmLeftUpperNoTrans(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n, cols := 8, 5
	r := upperTriangular(rng, n)
	b := randDenseStrided(rng, n, cols)
	orig := b.Clone()
	TrsmLeftUpperNoTrans(r, b)
	prod := mat.NewDense(n, cols)
	naiveGemm(NoTrans, NoTrans, 1, r, b, 0, prod)
	if !mat.EqualApprox(prod, orig, 1e-9) {
		t.Fatal("TrsmLeftUpperNoTrans: R·X != B")
	}
}

// TestTrsmLeftZeroNotSkipped pins that back substitution takes the
// product for a zero entry of R like every other kernel here: 0·Inf and
// 0·NaN in a solved row below give NaN, as TrmmLeftUpperNoTrans does.
func TestTrsmLeftZeroNotSkipped(t *testing.T) {
	for _, n := range []int{2, 9} {
		r := mat.Identity(n) // (0, n-1) is a stored zero above the diagonal
		b := mat.NewDense(n, 3)
		for i := 0; i < n; i++ {
			b.Set(i, 0, 1)
			b.Set(i, 1, 2)
		}
		b.Set(n-1, 1, math.Inf(1))
		b.Set(n-1, 2, math.NaN())
		TrsmLeftUpperNoTrans(r, b)
		if got := b.At(0, 0); got != 1 {
			t.Fatalf("n=%d: (0,0) = %v, want 1", n, got)
		}
		for j := 1; j < 3; j++ {
			if got := b.At(0, j); !math.IsNaN(got) {
				t.Fatalf("n=%d: (0,%d) = %v, want NaN from 0·%v", n, j, got, b.At(n-1, j))
			}
		}
		if got := b.At(n-1, 1); !math.IsInf(got, 1) {
			t.Fatalf("n=%d: (%d,1) = %v, want +Inf", n, n-1, got)
		}
	}
}

func TestTrsmSingularPanics(t *testing.T) {
	r := mat.Identity(3)
	r.Set(1, 1, 0)
	b := mat.NewDense(4, 3)
	mustPanicB(t, func() { TrsmRightUpperNoTrans(parallel.Default, b, r) })
	c := mat.NewDense(3, 2)
	mustPanicB(t, func() { TrsmLeftUpperTrans(r, c) })
	mustPanicB(t, func() { TrsmLeftUpperNoTrans(r, c) })
}

func TestTrmmLeftUpperNoTrans(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{1, 2, 10} {
		a := upperTriangular(rng, n)
		b := randDenseStrided(rng, n, n+2)
		want := mat.NewDense(n, n+2)
		naiveGemm(NoTrans, NoTrans, 1, a, b, 0, want)
		TrmmLeftUpperNoTrans(a, b)
		if !mat.EqualApprox(b, want, 1e-10) {
			t.Fatalf("Trmm n=%d disagrees with dense product", n)
		}
	}
}

func TestTrmmTriangularProductStaysTriangular(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 12
	a := upperTriangular(rng, n)
	b := upperTriangular(rng, n)
	TrmmLeftUpperNoTrans(a, b)
	if !b.IsUpperTriangular(0) {
		t.Fatal("product of two upper triangular matrices must be upper triangular")
	}
}

// upperTriangular generates a well-conditioned upper triangular matrix with
// unit-magnitude diagonal.
func upperTriangular(rng *rand.Rand, n int) *mat.Dense {
	r := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		r.Set(i, i, 1+rng.Float64()) // diagonal in [1,2): well conditioned
		for j := i + 1; j < n; j++ {
			r.Set(i, j, 0.5*rng.NormFloat64())
		}
	}
	return r
}
