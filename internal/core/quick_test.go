package core

// Property-based tests (testing/quick) on the factorization invariants
// that must hold for *every* input, not just the curated cases.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/mat"
	"repro/metrics"
	"repro/testmat"
)

// qrcpInvariants checks the full contract of a pivoted factorization.
func qrcpInvariants(a *mat.Dense, res *CPResult) string {
	if !res.Perm.IsValid() {
		return "invalid permutation"
	}
	if !res.R.IsUpperTriangular(0) {
		return "R not upper triangular"
	}
	if e := metrics.Orthogonality(res.Q); e > 1e-12 {
		return "Q not orthonormal"
	}
	if r := metrics.Residual(a, res.Q, res.R, res.Perm); r > 1e-12 {
		return "residual too large"
	}
	return ""
}

func TestQuickIteCholQRCPInvariants(t *testing.T) {
	f := func(seed int64, mRaw, nRaw uint8, condExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%24
		m := n + 1 + int(mRaw)%200
		cond := math.Pow(10, float64(condExp%13)) // κ₂ up to 1e12
		a := testmat.GenerateWellConditioned(rng, m, n, cond)
		res, err := IteCholQRCP(parallel.Default, a, DefaultPivotTol, a.Cols)
		if err != nil {
			t.Logf("seed=%d m=%d n=%d κ=%g: %v", seed, m, n, cond, err)
			return false
		}
		if msg := qrcpInvariants(a, res); msg != "" {
			t.Logf("seed=%d m=%d n=%d κ=%g: %s", seed, m, n, cond, msg)
			return false
		}
		// Diagonal of R non-increasing in magnitude.
		for j := 1; j < n; j++ {
			if math.Abs(res.R.At(j, j)) > math.Abs(res.R.At(j-1, j-1))*(1+1e-8) {
				t.Logf("seed=%d: diagonal not decreasing at %d", seed, j)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestQuickPivotAgreementWithHouseholder(t *testing.T) {
	// For any well-conditioned matrix with a clean spectrum, Ite-CholQR-CP
	// and HQR-CP must pick identical pivots (the paper's central claim).
	f := func(seed int64, nRaw uint8, condExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%20
		m := 8 * n
		cond := math.Pow(10, 1+float64(condExp%11)) // 1e1..1e11
		a := testmat.GenerateWellConditioned(rng, m, n, cond)
		res, err := IteCholQRCP(parallel.Default, a, DefaultPivotTol, a.Cols)
		if err != nil {
			return false
		}
		ref := HQRCPNoQ(parallel.Default, a)
		if !metrics.AllCorrect(res.Perm, ref.Perm, n) {
			t.Logf("seed=%d n=%d κ=%g:\n ite %v\n hqr %v", seed, n, cond, res.Perm, ref.Perm)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestQuickCholQR2MatchesHouseholderR(t *testing.T) {
	// |R| of CholeskyQR2 equals |R| of Householder QR (signs may differ)
	// for any κ₂ ≲ 1e7 input.
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%16
		m := 4*n + 10
		a := testmat.GenerateWellConditioned(rng, m, n, 1e5)
		cq, err := CholQR2(parallel.Default, a)
		if err != nil {
			return false
		}
		hq := HouseholderQR(parallel.Default, a)
		scale := hq.R.MaxAbs()
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				d := math.Abs(cq.R.At(i, j)) - math.Abs(hq.R.At(i, j))
				if math.Abs(d) > 1e-10*scale {
					t.Logf("seed=%d: |R| differs at (%d,%d): %g vs %g",
						seed, i, j, cq.R.At(i, j), hq.R.At(i, j))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestQuickTruncationErrorBounded(t *testing.T) {
	// ‖A·P − Q₁R₁‖_F² ≤ Σ_{i>k} σᵢ² × (modest factor) for any truncation
	// rank on any graded matrix.
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16
		m := 200
		k := 1 + int(kRaw)%n
		sv := testmat.SigmaProfile(n, n, 1e-6)
		a := testmat.WithSingularValues(rng, m, n, sv)
		res, err := IteCholQRCP(parallel.Default, a, DefaultPivotTol, k)
		if err != nil {
			return false
		}
		ap := mat.NewDense(m, n)
		mat.PermuteCols(ap, a, res.Perm)
		blas.Gemm(parallel.Default, blas.NoTrans, blas.NoTrans, -1, res.Q, res.R, 1, ap)
		errF := ap.FrobeniusNorm()
		var tail float64
		for i := res.Rank; i < n; i++ {
			tail += sv[i] * sv[i]
		}
		bound := 50 * math.Sqrt(float64(n)) * math.Sqrt(tail)
		if errF > bound+1e-14 {
			t.Logf("seed=%d k=%d rank=%d: err %g > bound %g", seed, k, res.Rank, errF, bound)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestQuickPermutationRoundTrip(t *testing.T) {
	// Applying the factorization permutation and its inverse recovers the
	// original column order for any QRCP result.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(uint(seed)%14)
		a := testmat.GenerateWellConditioned(rng, 6*n, n, 1e4)
		res, err := IteCholQRCP(parallel.Default, a, DefaultPivotTol, a.Cols)
		if err != nil {
			return false
		}
		ap := mat.NewDense(a.Rows, n)
		mat.PermuteCols(ap, a, res.Perm)
		back := mat.NewDense(a.Rows, n)
		mat.PermuteCols(back, ap, res.Perm.Inverse())
		return mat.EqualApprox(back, a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
