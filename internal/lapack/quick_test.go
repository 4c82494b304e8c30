package lapack

// Property-based tests on the factorization contracts for arbitrary
// shapes and conditioning.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/mat"
)

func TestQuickGeqrfContract(t *testing.T) {
	f := func(seed int64, mRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%24
		m := n + int(mRaw)%80
		a := randMat(rng, m, n)
		fac := a.Clone()
		tau := make([]float64, n)
		Geqrf(parallel.Default, fac, tau)
		r := ExtractR(fac)
		if !r.IsUpperTriangular(0) {
			return false
		}
		Orgqr(parallel.Default, fac, tau)
		if orthoError(fac) > 1e-12*math.Sqrt(float64(n)) {
			return false
		}
		return residual(a, fac, r) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickPotrfRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%40
		b := randMat(rng, n+5, n)
		w := mat.NewDense(n, n)
		blas.Gram(parallel.Default, w, b)
		for i := 0; i < n; i++ {
			w.Set(i, i, w.At(i, i)+1)
		}
		r := w.Clone()
		if err := PotrfUpper(parallel.Default, r); err != nil {
			return false
		}
		ZeroLower(r)
		chk := mat.NewDense(n, n)
		blas.Gemm(parallel.Default, blas.Trans, blas.NoTrans, 1, r, r, 0, chk)
		return mat.EqualApprox(chk, w, 1e-10*(1+w.MaxAbs()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickGeqp3DiagonalDominance(t *testing.T) {
	// For any input, |R(j,j)| ≥ ‖R(j:k, j:k) column‖ ordering property:
	// the pivoted diagonal dominates every later column tail:
	// R(j,j)² ≥ Σ_{i=j..l} R(i,l)² for all l > j.
	f := func(seed int64, mRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%20
		m := n + int(mRaw)%60
		a := randMat(rng, m, n)
		fac := a.Clone()
		tau := make([]float64, n)
		jpvt := make(mat.Perm, n)
		Geqp3(parallel.Default, fac, tau, jpvt)
		r := ExtractR(fac)
		for j := 0; j < n; j++ {
			d2 := r.At(j, j) * r.At(j, j)
			for l := j + 1; l < n; l++ {
				tail := 0.0
				for i := j; i <= l; i++ {
					tail += r.At(i, l) * r.At(i, l)
				}
				if d2 < tail*(1-1e-8) {
					t.Logf("seed=%d m=%d n=%d: pivot property violated at (%d,%d)", seed, m, n, j, l)
					return false
				}
			}
		}
		return jpvt.IsValid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickJacobiSVDInvariants(t *testing.T) {
	f := func(seed int64, mRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%12
		m := n + int(mRaw)%40
		a := randMat(rng, m, n)
		sv := JacobiSVDValues(a)
		if len(sv) != n {
			return false
		}
		// Descending, non-negative.
		for i := range sv {
			if sv[i] < 0 {
				return false
			}
			if i > 0 && sv[i] > sv[i-1]+1e-12 {
				return false
			}
		}
		// Σσ² == ‖A‖_F².
		sum := 0.0
		for _, s := range sv {
			sum += s * s
		}
		nf := a.FrobeniusNorm()
		return math.Abs(sum-nf*nf) <= 1e-9*(1+nf*nf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
