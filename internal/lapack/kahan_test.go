package lapack

// The Kahan matrix is the classic stress test for QR with column
// pivoting: an upper triangular matrix K(θ) whose columns have subtly
// graded norms. Naive norm downdating loses the grading to cancellation
// and picks wrong pivots (Drmač & Bujanović 2008, the paper's [17]);
// the LAPACK-style recomputation safeguard implemented in Geqpf/Geqp3
// must keep the factorization rank-revealing.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/mat"
)

// kahan builds the n×n Kahan matrix: K = diag(1, s, s², …)·(I − c·U)
// where U is strictly upper with all ones, s = sin θ, c = cos θ.
func kahan(n int, theta float64) *mat.Dense {
	s, c := math.Sin(theta), math.Cos(theta)
	k := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		d := math.Pow(s, float64(i))
		k.Set(i, i, d)
		for j := i + 1; j < n; j++ {
			k.Set(i, j, -c*d)
		}
	}
	return k
}

func TestGeqp3KahanRankRevealing(t *testing.T) {
	// σ_min of the leading (n−1) block must stay far above the smallest
	// singular value; a non-rank-revealing factorization would bury the
	// tiny direction inside R₁₁.
	for _, n := range []int{20, 40, 90} {
		k := kahan(n, 1.2)
		fac := k.Clone()
		tau := make([]float64, n)
		jpvt := make(mat.Perm, n)
		Geqp3(parallel.Default, fac, tau, jpvt)
		r := ExtractR(fac)
		// Kahan is the matrix on which QRCP's |R(n,n)| famously
		// *overestimates* σ_min, but with a working safeguard the final
		// diagonal must still fall well below the leading one (it decays
		// like sinⁿθ); an unsafeguarded downdate derails much earlier.
		last := math.Abs(r.At(n-1, n-1))
		first := math.Abs(r.At(0, 0))
		want := 4 * math.Pow(math.Sin(1.2), float64(n-1))
		if last > first*want {
			t.Fatalf("n=%d: |R(n,n)|/|R(1,1)| = %g, want ≲ %g", n, last/first, want)
		}
		// Diagonals must be non-increasing: the safeguard kept the
		// pivoting consistent.
		for j := 1; j < n; j++ {
			if math.Abs(r.At(j, j)) > math.Abs(r.At(j-1, j-1))*(1+1e-8) {
				t.Fatalf("n=%d: diagonal increased at %d", n, j)
			}
		}
	}
}

func TestGeqpfGeqp3AgreeOnKahan(t *testing.T) {
	n := 48
	k := kahan(n, 1.2)
	f1, f2 := k.Clone(), k.Clone()
	t1, t2 := make([]float64, n), make([]float64, n)
	p1, p2 := make(mat.Perm, n), make(mat.Perm, n)
	Geqpf(parallel.Default, f1, t1, p1)
	Geqp3(parallel.Default, f2, t2, p2)
	r1, r2 := ExtractR(f1), ExtractR(f2)
	// Diagonal magnitudes must agree closely even if noise-level tails
	// permute differently.
	for j := 0; j < n; j++ {
		d1, d2 := math.Abs(r1.At(j, j)), math.Abs(r2.At(j, j))
		if d1 == 0 && d2 == 0 {
			continue
		}
		if math.Abs(d1-d2) > 1e-8*(d1+d2) {
			t.Fatalf("diag %d differs: %g vs %g", j, d1, d2)
		}
	}
}

func TestGeqp3PerturbedKahanReconstruction(t *testing.T) {
	// The slightly perturbed Kahan matrix (the practical stress case from
	// the Drmač–Bujanović study) embedded in a tall matrix via random row
	// rotations: factor and verify reconstruction.
	rng := rand.New(rand.NewSource(191))
	n := 32
	k := kahan(n, 1.1)
	// Perturb the diagonal to break exact ties.
	for i := 0; i < n; i++ {
		k.Set(i, i, k.At(i, i)*(1+1e-10*rng.NormFloat64()))
	}
	m := 150
	tall := mat.NewDense(m, n)
	tall.Slice(0, n, 0, n).Copy(k)
	// Random orthogonal row mixing (Householder on a Gaussian).
	g := randMat(rng, m, m)
	gt := make([]float64, m)
	Geqrf(parallel.Default, g, gt)
	Orgqr(parallel.Default, g, gt)
	mixed := mat.NewDense(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for l := 0; l < n; l++ { // tall has zeros below row n
				s += g.At(i, l) * tall.At(l, j)
			}
			mixed.Set(i, j, s)
		}
	}
	fac := mixed.Clone()
	tau := make([]float64, n)
	jpvt := make(mat.Perm, n)
	Geqp3(parallel.Default, fac, tau, jpvt)
	checkQRCP(t, "kahan-tall", mixed, fac, tau, jpvt, 1e-6)
}
