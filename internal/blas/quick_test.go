package blas

// Property-based tests: the kernels must agree with the naive reference
// on arbitrary shapes, strides, and scalar values.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/mat"
)

func TestQuickGemmMatchesNaive(t *testing.T) {
	f := func(seed int64, mRaw, nRaw, kRaw, opRaw uint8, alphaRaw, betaRaw int8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + int(mRaw)%20
		n := 1 + int(nRaw)%20
		k := 1 + int(kRaw)%20
		// A·B, Aᵀ·B or A·Bᵀ: Gemm does not support Aᵀ·Bᵀ.
		op := opRaw % 3
		tA, tB := op == 1, op == 2
		alpha := float64(alphaRaw) / 16
		beta := float64(betaRaw) / 16
		ar, ac := m, k
		if tA {
			ar, ac = k, m
		}
		br, bc := k, n
		if tB {
			br, bc = n, k
		}
		a := randDenseStrided(rng, ar, ac)
		b := randDenseStrided(rng, br, bc)
		c := randDenseStrided(rng, m, n)
		want := c.Clone()
		naiveGemm(Transpose(tA), Transpose(tB), alpha, a, b, beta, want)
		Gemm(nil, Transpose(tA), Transpose(tB), alpha, a, b, beta, c)
		return mat.EqualApprox(c, want, 1e-11)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickSyrkMatchesNaive(t *testing.T) {
	f := func(seed int64, mRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + int(mRaw)%40
		n := 1 + int(nRaw)%12
		a := randDenseStrided(rng, m, n)
		c := randDenseStrided(rng, n, n)
		want := c.Clone()
		naiveSyrkUpper(-1, a, 1, want)
		SyrkUpperTrans(nil, a, c)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				d := c.At(i, j) - want.At(i, j)
				if d > 1e-11 || d < -1e-11 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickTrsmRightInvertsTrmm(t *testing.T) {
	// X·R followed by ·R⁻¹ must return X for any well-conditioned upper R.
	f := func(seed int64, mRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + int(mRaw)%30
		n := 1 + int(nRaw)%14
		r := upperTriangular(rng, n)
		x := randDenseStrided(rng, m, n)
		orig := x.Clone()
		// X := X·R via gemm, then solve back.
		prod := mat.NewDense(m, n)
		naiveGemm(NoTrans, NoTrans, 1, x, r, 0, prod)
		TrsmRightUpperNoTrans(nil, prod, r)
		return mat.EqualApprox(prod, orig, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickGemvConsistentWithGemm(t *testing.T) {
	// Gemv must equal a single-column Gemm for both transposes.
	f := func(seed int64, mRaw, nRaw uint8, trans bool) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + int(mRaw)%30
		n := 1 + int(nRaw)%20
		a := randDenseStrided(rng, m, n)
		xl, yl := n, m
		if trans {
			xl, yl = m, n
		}
		x := make([]float64, xl)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, yl)
		Gemv(nil, Transpose(trans), 1.3, a, x, 0, y)
		xm := mat.NewDenseData(xl, 1, append([]float64(nil), x...))
		ym := mat.NewDense(yl, 1)
		naiveGemm(Transpose(trans), NoTrans, 1.3, a, xm, 0, ym)
		for i := range y {
			d := y[i] - ym.At(i, 0)
			if d > 1e-11 || d < -1e-11 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
