package cholcp

// Property-based tests on the P-Chol-CP invariants (Eq. 5 and Eq. 6).

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/mat"
)

func TestQuickPCholCPInvariants(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8, epsExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%16
		m := n + int(mRaw)%60
		eps := math.Pow(10, -float64(1+epsExp%8))
		w := gram(rng, m, n, func(j int) float64 { return math.Pow(10, -float64(j%7)) })
		res := PCholCP(parallel.Default, w, eps)
		if !res.Perm.IsValid() {
			t.Logf("seed=%d: invalid perm", seed)
			return false
		}
		if !res.R.IsUpperTriangular(0) {
			t.Logf("seed=%d: R not upper", seed)
			return false
		}
		if res.NPiv < 0 || res.NPiv > n {
			return false
		}
		// Stopping rule (Eq. 5): all factored diagonals satisfy
		// R(k,k) ≥ R(0,0)·ε (up to roundoff).
		if res.NPiv > 0 {
			r00 := res.R.At(0, 0)
			for k := 1; k < res.NPiv; k++ {
				if res.R.At(k, k) < r00*eps*(1-1e-12) {
					t.Logf("seed=%d: diagonal %d below tolerance", seed, k)
					return false
				}
			}
			// Diagonals of R are non-increasing (greedy diagonal pivoting).
			for k := 1; k < res.NPiv; k++ {
				if res.R.At(k, k) > res.R.At(k-1, k-1)*(1+1e-12) {
					t.Logf("seed=%d: diagonal increased at %d", seed, k)
					return false
				}
			}
		}
		// Eq. (6): leading NPiv rows of PᵀWP equal those of RᵀR.
		rtr := mat.NewDense(n, n)
		blas.Gemm(parallel.Default, blas.Trans, blas.NoTrans, 1, res.R, res.R, 0, rtr)
		scale := w.MaxAbs() + 1
		for i := 0; i < res.NPiv; i++ {
			for j := 0; j < n; j++ {
				want := w.At(res.Perm[i], res.Perm[j])
				if d := math.Abs(rtr.At(i, j) - want); d > 1e-10*scale {
					t.Logf("seed=%d: Eq.6 violated at (%d,%d): %g", seed, i, j, d)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickPCholCPMaxCap(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 12
		w := gram(rng, 50, n, nil)
		cap := 1 + int(capRaw)%n
		res := PCholCPMax(parallel.Default, w, 0, cap, nil, mat.NewDense(n, n))
		if res.NPiv > cap {
			return false
		}
		// Well-conditioned Gram: the cap is the binding constraint.
		return res.NPiv == cap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
