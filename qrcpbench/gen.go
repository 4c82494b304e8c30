package main

import (
	"hash/fnv"
	"math"
	"math/rand"

	"repro/mat"
)

// trailingSigma is the singular value Eq. 17 of the paper gives the
// directions beyond the numerical rank.
const trailingSigma = 1e-16

// sigmaProfile is the paper's Eq. 17 singular-value profile: σ^((i−1)/(r−1))
// for the leading r values, trailingSigma beyond them.
func sigmaProfile(n, r int, sigma float64) []float64 {
	sv := make([]float64, n)
	for i := range sv {
		switch {
		case i >= r:
			sv[i] = trailingSigma
		case r == 1:
			sv[i] = 1
		default:
			sv[i] = math.Pow(sigma, float64(i)/float64(r-1))
		}
	}
	return sv
}

// generate returns A = (G/√m)·diag(σ)·Vᵀ for a Gaussian m×n G drawn from
// seed, the Eq. 17 profile σ of rank r, and an n×n orthogonal V drawn
// from structure. The generator is plain Go loops that call no kernel of
// the program, so a change to a kernel cannot change the inputs it is
// measured on. Because the singular values of G/√m lie within
// 1 ± √(n/m) (plus small fluctuations), those of A stay within about 5 %
// of σ once m/n ≥ 512.
//
// V and σ fix the column structure, and with it how many iterations
// Ite-CholQR-CP needs; G barely moves it. Drawing V from the seed too
// made ite-tall take 3 iterations on some seeds and 4 on others, a 25 %
// difference in work between runs. So the workloads keep one structure
// and let the seed draw G.
func generate(structure, seed int64, m, n, r int, sigma float64) *mat.Dense {
	sv := sigmaProfile(n, r, sigma)
	v := gramSchmidt(rand.New(rand.NewSource(structure)), n)
	rng := rand.New(rand.NewSource(seed))
	// c = diag(σ)·Vᵀ, so row i of A is (g_i/√m)·c.
	c := make([]float64, n*n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			c[k*n+j] = sv[k] * v[j*n+k]
		}
	}
	a := mat.NewDense(m, n)
	g := make([]float64, n)
	scale := 1 / math.Sqrt(float64(m))
	for i := 0; i < m; i++ {
		for k := range g {
			g[k] = rng.NormFloat64() * scale
		}
		row := a.Data[i*a.Stride : i*a.Stride+n]
		for k, gk := range g {
			for j, ckj := range c[k*n : k*n+n] {
				row[j] += gk * ckj
			}
		}
	}
	return a
}

// gramSchmidt returns a row-major n×n orthogonal matrix: a seeded
// Gaussian matrix orthonormalized column by column with modified
// Gram–Schmidt, applied twice so the columns are orthonormal to roundoff.
func gramSchmidt(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n*n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	for j := 0; j < n; j++ {
		for pass := 0; pass < 2; pass++ {
			for k := 0; k < j; k++ {
				dot := 0.0
				for i := 0; i < n; i++ {
					dot += v[i*n+k] * v[i*n+j]
				}
				for i := 0; i < n; i++ {
					v[i*n+j] -= dot * v[i*n+k]
				}
			}
		}
		nrm := 0.0
		for i := 0; i < n; i++ {
			nrm += v[i*n+j] * v[i*n+j]
		}
		nrm = math.Sqrt(nrm)
		for i := 0; i < n; i++ {
			v[i*n+j] /= nrm
		}
	}
	return v
}

// checksum is the FNV-1a hash of the bit patterns of every entry of the
// matrices, in order. Runs that print the same checksum factor identical
// inputs.
func checksum(ms ...*mat.Dense) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, a := range ms {
		for i := 0; i < a.Rows; i++ {
			for _, x := range a.Data[i*a.Stride : i*a.Stride+a.Cols] {
				u := math.Float64bits(x)
				for k := range b {
					b[k] = byte(u >> (8 * k))
				}
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}
