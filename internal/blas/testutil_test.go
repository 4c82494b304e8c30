package blas

import (
	"math"
	"math/rand"

	"repro/mat"
)

// randDense fills an r×c matrix with standard normal entries.
func randDense(rng *rand.Rand, r, c int) *mat.Dense {
	m := mat.NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// randDenseStrided embeds an r×c random matrix inside a larger allocation
// so kernels are exercised with Stride > Cols.
func randDenseStrided(rng *rand.Rand, r, c int) *mat.Dense {
	big := randDense(rng, r+2, c+3)
	return big.Slice(1, 1+r, 2, 2+c)
}

// naiveGemm computes C = alpha·op(A)·op(B) + beta·C element by element.
func naiveGemm(tA, tB Transpose, alpha float64, a, b *mat.Dense, beta float64, c *mat.Dense) {
	m, n := c.Rows, c.Cols
	var k int
	if tA == Trans {
		k = a.Rows
	} else {
		k = a.Cols
	}
	at := func(i, l int) float64 {
		if tA == Trans {
			return a.At(l, i)
		}
		return a.At(i, l)
	}
	bt := func(l, j int) float64 {
		if tB == Trans {
			return b.At(j, l)
		}
		return b.At(l, j)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += at(i, l) * bt(l, j)
			}
			c.Set(i, j, alpha*s+beta*c.At(i, j))
		}
	}
}

// naiveSyrkUpper builds the upper triangle of alpha·AᵀA + beta·C.
func naiveSyrkUpper(alpha float64, a *mat.Dense, beta float64, c *mat.Dense) {
	n := a.Cols
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			s := 0.0
			for l := 0; l < a.Rows; l++ {
				s += a.At(l, i) * a.At(l, j)
			}
			c.Set(i, j, alpha*s+beta*c.At(i, j))
		}
	}
}

// withGoKernels runs f with the assembly kernels switched off, so the Go
// reference loops of quad.go run on every build and CPU.
func withGoKernels(f func()) {
	saved, saved512 := useAVX2, useAVX512
	useAVX2, useAVX512 = false, false
	defer func() { useAVX2, useAVX512 = saved, saved512 }()
	f()
}

// withAVX2Kernels runs f with the AVX-512 tiles switched off, so the
// AVX2 tiles run on CPUs that have both.
func withAVX2Kernels(f func()) {
	saved := useAVX512
	useAVX512 = false
	defer func() { useAVX512 = saved }()
	f()
}

// sameFloatBits reports whether a and b have the same bits, any NaN
// matching any NaN.
func sameFloatBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}
