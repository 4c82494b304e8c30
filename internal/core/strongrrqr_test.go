package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/parallel"
	"repro/mat"
	"repro/metrics"
	"repro/testmat"
)

// kahanTall embeds a Kahan matrix in a tall matrix by orthogonal row
// mixing: the singular structure is preserved, the shape becomes m×n.
func kahanTall(rng *rand.Rand, m, n int, theta float64) *mat.Dense {
	s, c := math.Sin(theta), math.Cos(theta)
	k := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		d := math.Pow(s, float64(i))
		k.Set(i, i, d*(1+1e-11*rng.NormFloat64()))
		for j := i + 1; j < n; j++ {
			k.Set(i, j, -c*d)
		}
	}
	u := testmat.RandomOrtho(rng, m, n)
	a := mat.NewDense(m, n)
	blas.Gemm(parallel.Default, blas.NoTrans, blas.NoTrans, 1, u, k, 0, a)
	return a
}

func TestStrongRRQRInvariantsAndBound(t *testing.T) {
	rng := rand.New(rand.NewSource(221))
	m, n, k := 300, 20, 12
	a := testmat.Generate(rng, m, n, n, 1e-6)
	res, err := StrongRRQR(parallel.Default, a, k, DefaultStrongRRQRF)
	if err != nil {
		t.Fatal(err)
	}
	checkCP(t, "strong-rrqr", a, res, 1e-13, 1e-13)
	// Gu–Eisenstat certificate: the criterion holds at exit.
	_, _, rho := worstPair(res.R, k, DefaultStrongRRQRF)
	if rho > DefaultStrongRRQRF*(1+1e-10) {
		t.Fatalf("exit criterion violated: ρ = %g > f = %g", rho, DefaultStrongRRQRF)
	}
	// Bound: σ_min(R₁₁) ≥ σ_k/√(1+f²k(n−k)).
	sv := lapack.JacobiSVDValues(a)
	r11min := lapack.JacobiSVDValues(res.R.Slice(0, k, 0, k))[k-1]
	bound := sv[k-1] / math.Sqrt(1+DefaultStrongRRQRF*DefaultStrongRRQRF*float64(k*(n-k)))
	if r11min < bound*(1-1e-8) {
		t.Fatalf("σ_min(R₁₁) = %g below guarantee %g", r11min, bound)
	}
}

func TestStrongRRQRImprovesKahan(t *testing.T) {
	// On the Kahan matrix greedy QRCP underestimates the gap; strong RRQR
	// must certify a σ_min(R₁₁) within its guarantee of σ_k.
	rng := rand.New(rand.NewSource(222))
	m, n := 200, 40
	k := n - 1
	a := kahanTall(rng, m, n, 1.25)
	res, err := StrongRRQR(parallel.Default, a, k, DefaultStrongRRQRF)
	if err != nil {
		t.Fatal(err)
	}
	checkCP(t, "strong-kahan", a, res, 1e-12, 1e-12)
	sv := lapack.JacobiSVDValues(a)
	r11min := lapack.JacobiSVDValues(res.R.Slice(0, k, 0, k))[k-1]
	bound := sv[k-1] / math.Sqrt(1+DefaultStrongRRQRF*DefaultStrongRRQRF*float64(k*(n-k)))
	if r11min < bound*(1-1e-8) {
		t.Fatalf("Kahan: σ_min(R₁₁) = %g below strong-RRQR guarantee %g (σ_k = %g)",
			r11min, bound, sv[k-1])
	}
	// ‖R₂₂‖ bounded relative to σ_(k+1).
	f2 := DefaultStrongRRQRF * DefaultStrongRRQRF
	if nr := metrics.NormR22(res.R, k); nr > sv[k]*math.Sqrt(1+f2*float64(k*(n-k)))*(1+1e-8) {
		t.Fatalf("Kahan: ‖R₂₂‖₂ = %g above guarantee (σ_(k+1) = %g)", nr, sv[k])
	}
}

func TestStrongRRQRNoSwapsOnCleanMatrix(t *testing.T) {
	// For a generic graded matrix the greedy pivots already satisfy the
	// criterion; strong RRQR must return the same permutation as HQR-CP.
	rng := rand.New(rand.NewSource(223))
	a := testmat.Generate(rng, 250, 16, 16, 1e-4)
	ref := HQRCPNoQ(parallel.Default, a)
	res, err := StrongRRQR(parallel.Default, a, 8, 10) // generous f: no swaps expected
	if err != nil {
		t.Fatal(err)
	}
	for j := range ref.Perm {
		if res.Perm[j] != ref.Perm[j] {
			t.Fatalf("unexpected swap: %v vs %v", res.Perm, ref.Perm)
		}
	}
}

func TestStrongRRQRPanics(t *testing.T) {
	a := mat.NewDense(10, 5)
	mustPanicC(t, func() { StrongRRQR(parallel.Default, a, 0, 2) })                  //nolint:errcheck
	mustPanicC(t, func() { StrongRRQR(parallel.Default, a, 6, 2) })                  //nolint:errcheck
	mustPanicC(t, func() { StrongRRQR(parallel.Default, a, 3, 1) })                  //nolint:errcheck
	mustPanicC(t, func() { StrongRRQR(parallel.Default, mat.NewDense(3, 5), 2, 2) }) //nolint:errcheck
}
