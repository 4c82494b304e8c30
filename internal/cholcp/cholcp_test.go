package cholcp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/mat"
	"repro/testmat"
)

// gram returns BᵀB for a random m×n B, optionally with graded columns.
func gram(rng *rand.Rand, m, n int, colScale func(j int) float64) *mat.Dense {
	b := mat.NewDense(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 1.0
			if colScale != nil {
				s = colScale(j)
			}
			b.Set(i, j, s*rng.NormFloat64())
		}
	}
	w := mat.NewDense(n, n)
	blas.Gram(nil, w, b)
	return w
}

// reconstruct computes Rᵀ·R + paddingᵀpadding correction and compares with
// Pᵀ·W·P on the leading npiv block and coupling block (Eq. 6).
func checkFactorization(t *testing.T, w *mat.Dense, res Result) {
	t.Helper()
	n := w.Rows
	if !res.Perm.IsValid() {
		t.Fatalf("invalid perm %v", res.Perm)
	}
	if !res.R.IsUpperTriangular(0) {
		t.Fatal("R not upper triangular")
	}
	// PᵀWP: element (i,j) = W(perm[i], perm[j]).
	pwp := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			pwp.Set(i, j, w.At(res.Perm[i], res.Perm[j]))
		}
	}
	rtr := mat.NewDense(n, n)
	blas.Gemm(nil, blas.Trans, blas.NoTrans, 1, res.R, res.R, 0, rtr)
	scale := w.MaxAbs()
	np := res.NPiv
	// Leading block and coupling block must match exactly (up to roundoff):
	// (PᵀWP)(0:np, :) == (RᵀR)(0:np, :) because W′ is zero there.
	for i := 0; i < np; i++ {
		for j := 0; j < n; j++ {
			if d := math.Abs(pwp.At(i, j) - rtr.At(i, j)); d > 1e-12*scale {
				t.Fatalf("Eq.(6) violated at (%d,%d): |Δ| = %g", i, j, d)
			}
		}
	}
}

func TestCholCPFullRank(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{1, 2, 5, 20, 64} {
		w := gram(rng, n+10, n, nil)
		res := CholCP(nil, w)
		if res.NPiv != n {
			t.Fatalf("n=%d: NPiv = %d, want full %d", n, res.NPiv, n)
		}
		if res.Breakdown {
			t.Fatal("unexpected breakdown for well-conditioned Gram matrix")
		}
		checkFactorization(t, w, res)
	}
}

func TestCholCPPivotOrderIsDiagonalGreedy(t *testing.T) {
	// A diagonal W: pivots must come out in decreasing diagonal order.
	w := mat.NewDense(4, 4)
	diag := []float64{2, 8, 1, 4}
	for i, v := range diag {
		w.Set(i, i, v)
	}
	res := CholCP(nil, w)
	want := mat.Perm{1, 3, 0, 2}
	for j, v := range want {
		if res.Perm[j] != v {
			t.Fatalf("perm = %v, want %v", res.Perm, want)
		}
	}
	// R diagonal should be sqrt of sorted diagonals.
	for j, v := range []float64{8, 4, 2, 1} {
		if math.Abs(res.R.At(j, j)-math.Sqrt(v)) > 1e-14 {
			t.Fatalf("R diag %d = %v, want sqrt(%v)", j, res.R.At(j, j), v)
		}
	}
}

func TestPCholCPToleranceStops(t *testing.T) {
	// Gram of a matrix with strongly graded columns: with ε = 1e-3 the
	// factorization must stop once diagonals fall below w11·ε².
	rng := rand.New(rand.NewSource(72))
	n := 10
	w := gram(rng, 200, n, func(j int) float64 { return math.Pow(10, -float64(j)) })
	res := PCholCP(nil, w, 1e-3)
	if res.NPiv == 0 || res.NPiv >= n {
		t.Fatalf("NPiv = %d, want partial stop in (0,%d)", res.NPiv, n)
	}
	if res.Breakdown {
		t.Fatal("tolerance stop must not be reported as breakdown")
	}
	// Stopping rule: every factored diagonal of R (squared) ≥ w11·ε²;
	// r(k,k)/r(0,0) ≥ ε for k < NPiv (Eq. 5).
	r00 := res.R.At(0, 0)
	for k := 0; k < res.NPiv; k++ {
		if res.R.At(k, k)/r00 < 1e-3*0.999 {
			t.Fatalf("factored diagonal %d below tolerance: %g", k, res.R.At(k, k)/r00)
		}
	}
	checkFactorization(t, w, res)
	// Trailing padding must be exactly the identity.
	for k := res.NPiv; k < n; k++ {
		if res.R.At(k, k) != 1 {
			t.Fatalf("trailing diagonal %d = %v, want 1", k, res.R.At(k, k))
		}
		for j := k + 1; j < n; j++ {
			if res.R.At(k, j) != 0 {
				t.Fatalf("trailing row %d not identity", k)
			}
		}
	}
}

func TestPCholCPBreakdown(t *testing.T) {
	// Exactly rank-deficient W: after r columns the remaining diagonal is
	// ~0 or slightly negative; ε=0 must stop by breakdown, not divide by 0.
	rng := rand.New(rand.NewSource(73))
	m, n, rank := 100, 8, 3
	b := mat.NewDense(m, n)
	base := mat.NewDense(m, rank)
	for i := range base.Data {
		base.Data[i] = rng.NormFloat64()
	}
	for j := 0; j < n; j++ {
		coef := make([]float64, rank)
		for i := range coef {
			coef[i] = rng.NormFloat64()
		}
		for i := 0; i < m; i++ {
			s := 0.0
			for l := 0; l < rank; l++ {
				s += base.At(i, l) * coef[l]
			}
			b.Set(i, j, s)
		}
	}
	w := mat.NewDense(n, n)
	blas.Gram(nil, w, b)
	res := PCholCP(nil, w, 0)
	if res.NPiv < rank {
		t.Fatalf("NPiv = %d, want ≥ rank %d", res.NPiv, rank)
	}
	// With ε = 0 a few extra columns of roundoff noise may get factored
	// before the diagonal finally turns non-positive; their diagonals must
	// be at noise level relative to the first pivot.
	lead := res.R.At(0, 0)
	for k := rank; k < res.NPiv; k++ {
		if res.R.At(k, k) > 1e-6*lead {
			t.Fatalf("diagonal %d = %g not at noise level (lead %g)", k, res.R.At(k, k), lead)
		}
	}
	for _, v := range res.R.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite entries in R after breakdown stop")
		}
	}
}

func TestPCholCPZeroMatrix(t *testing.T) {
	w := mat.NewDense(5, 5)
	res := PCholCP(nil, w, 1e-5)
	if res.NPiv != 0 || !res.Breakdown {
		t.Fatalf("zero matrix: NPiv=%d breakdown=%v, want 0/true", res.NPiv, res.Breakdown)
	}
	// R must be the identity (pure padding).
	if !mat.EqualApprox(res.R, mat.Identity(5), 0) {
		t.Fatal("R of zero matrix must be identity padding")
	}
}

func TestPCholCPDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	w := gram(rng, 50, 6, nil)
	orig := w.Clone()
	PCholCP(nil, w, 1e-5)
	if !mat.EqualApprox(w, orig, 0) {
		t.Fatal("PCholCP modified its input")
	}
}

func TestPCholCPMatchesUnpivotedOnIdentityGram(t *testing.T) {
	// For W = I, no pivoting happens and R = I.
	res := PCholCP(nil, mat.Identity(6), 1e-5)
	if res.NPiv != 6 {
		t.Fatalf("NPiv = %d, want 6", res.NPiv)
	}
	if !mat.EqualApprox(res.R, mat.Identity(6), 1e-15) {
		t.Fatal("R != I for W = I")
	}
	for j, v := range res.Perm {
		if v != j {
			t.Fatalf("perm should be identity, got %v", res.Perm)
		}
	}
}

func TestPCholCPNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PCholCP(nil, mat.NewDense(3, 4), 0)
}

func TestPCholCPEpsilonMonotone(t *testing.T) {
	// As ε decreases the stopping rule only gets weaker, so the number of
	// factored columns must be non-decreasing.
	rng := rand.New(rand.NewSource(75))
	w := gram(rng, 300, 12, func(j int) float64 { return math.Pow(10, -float64(j)/2) })
	prev := 0
	for _, eps := range []float64{1e-1, 1e-3, 1e-6, 1e-12, 0} {
		res := PCholCP(nil, w, eps)
		if res.NPiv < prev {
			t.Fatalf("NPiv not monotone in ε: eps=%g gives %d < previous %d", eps, res.NPiv, prev)
		}
		prev = res.NPiv
	}
}

// pcholcpUnblocked is the unblocked P-Chol-CP that the blocked
// PCholCPMax replaced, kept as its oracle: a right-looking loop of
// rank-1 downdates of the full trailing square, pivoting on its
// diagonal.
func pcholcpUnblocked(w *mat.Dense, eps float64, maxPiv int) Result {
	n := w.Rows
	maxPiv = min(maxPiv, n)
	work := w.Clone()
	r := mat.NewDense(n, n)
	perm := mat.IdentityPerm(n)
	res := Result{R: r, Perm: perm}
	var w11 float64
	for k := 0; k < maxPiv; k++ {
		p := k
		for l := k + 1; l < n; l++ {
			if work.At(l, l) > work.At(p, p) {
				p = l
			}
		}
		wpp := work.At(p, p)
		if k == 0 {
			w11 = wpp
		}
		if wpp <= 0 || math.IsNaN(wpp) {
			res.Breakdown = true
			break
		}
		if k > 0 && wpp < w11*eps*eps {
			break
		}
		if p != k {
			work.SwapRows(k, p)
			work.SwapCols(k, p)
			r.SwapCols(k, p)
			perm.Swap(k, p)
		}
		rkk := math.Sqrt(work.At(k, k))
		r.Set(k, k, rkk)
		inv := 1 / rkk
		rrow := r.Data[k*r.Stride : k*r.Stride+n]
		wrow := work.Data[k*work.Stride : k*work.Stride+n]
		for j := k + 1; j < n; j++ {
			rrow[j] = wrow[j] * inv
		}
		for i := k + 1; i < n; i++ {
			ri := rrow[i]
			if ri == 0 {
				continue
			}
			wi := work.Data[i*work.Stride : i*work.Stride+n]
			for j := k + 1; j < n; j++ {
				wi[j] -= ri * rrow[j]
			}
		}
		res.NPiv = k + 1
	}
	for k := res.NPiv; k < n; k++ {
		r.Set(k, k, 1)
	}
	return res
}

// requireSameDecisions checks the blocked factorization against the
// oracle: the same pivots, the same count, the same exit, and leading
// rows of RᵀR (the factored part of PᵀWP) within a few n·u·‖W‖, NaN
// where the oracle's are.
func requireSameDecisions(t *testing.T, label string, w *mat.Dense, eps float64, maxPiv int) {
	t.Helper()
	n := w.Rows
	got := PCholCPMax(nil, w, eps, maxPiv)
	want := pcholcpUnblocked(w, eps, maxPiv)
	if got.NPiv != want.NPiv || got.Breakdown != want.Breakdown {
		t.Fatalf("%s: NPiv %d breakdown %v, oracle %d %v", label, got.NPiv, got.Breakdown, want.NPiv, want.Breakdown)
	}
	for j := range want.Perm {
		if got.Perm[j] != want.Perm[j] {
			t.Fatalf("%s: perm %v, oracle %v", label, got.Perm, want.Perm)
		}
	}
	gotG, wantG := mat.NewDense(n, n), mat.NewDense(n, n)
	blas.Gemm(nil, blas.Trans, blas.NoTrans, 1, got.R, got.R, 0, gotG)
	blas.Gemm(nil, blas.Trans, blas.NoTrans, 1, want.R, want.R, 0, wantG)
	tol := 4 * float64(n) * 0x1p-52 * w.MaxAbs()
	for i := 0; i < got.NPiv; i++ {
		for j := 0; j < n; j++ {
			g, o := gotG.At(i, j), wantG.At(i, j)
			if d := math.Abs(g - o); !(d <= tol) && !(math.IsNaN(g) && math.IsNaN(o)) {
				t.Fatalf("%s: (RᵀR)(%d,%d) differs from the oracle's by %g, bound %g", label, i, j, d, tol)
			}
		}
	}
}

func TestPCholCPBlockedMatchesUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	// The Eq. 17 σ-profiles (rank r, grading σ; r = n is the full-rank
	// Eq. 18 case), through the block boundaries.
	for _, c := range []struct {
		n, r  int
		sigma float64
	}{
		{7, 7, 1e-3}, {16, 12, 1e-12}, {64, 48, 1e-12}, {64, 64, 1e-6}, {130, 100, 1e-8}, {130, 130, 1e-2},
	} {
		a := testmat.Generate(rng, 3*c.n, c.n, c.r, c.sigma)
		w := mat.NewDense(c.n, c.n)
		blas.Gram(nil, w, a)
		for _, eps := range []float64{1e-5, 1e-3} {
			for _, maxPiv := range []int{c.n, c.r / 2, 9, 1, 0} {
				requireSameDecisions(t, fmt.Sprintf("n=%d r=%d σ=%g ε=%g cap=%d", c.n, c.r, c.sigma, eps, maxPiv), w, eps, maxPiv)
			}
		}
	}

	// Exact rank deficiency: a rank-1 W of powers of two, whose Schur
	// complement after one pivot is exactly zero, and a Gram with
	// exactly zero columns, whose zero diagonals end in breakdown.
	for _, n := range []int{5, 40} {
		u := make([]float64, n)
		for i := range u {
			u[i] = math.Ldexp(1, rng.Intn(20)-10)
		}
		w := mat.NewDense(n, n)
		for i := range u {
			for j := range u {
				w.Set(i, j, u[i]*u[j])
			}
		}
		requireSameDecisions(t, fmt.Sprintf("rank-1 n=%d", n), w, 0, n)

		b := mat.NewDense(2*n, n)
		for j := 0; j < n; j += 3 {
			for i := 0; i < b.Rows; i++ {
				b.Set(i, j, rng.NormFloat64())
			}
		}
		blas.Gram(nil, w, b)
		for _, eps := range []float64{0, 1e-5} {
			requireSameDecisions(t, fmt.Sprintf("zero columns n=%d ε=%g", n, eps), w, eps, n)
		}
	}

	// Indefinite W: a random symmetric matrix with a mixed-sign
	// diagonal stops by breakdown once no positive diagonal is left.
	for _, n := range []int{6, 33} {
		w := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			w.Set(i, i, 4*rng.NormFloat64())
			for j := i + 1; j < n; j++ {
				v := rng.NormFloat64() / 4
				w.Set(i, j, v)
				w.Set(j, i, v)
			}
		}
		requireSameDecisions(t, fmt.Sprintf("indefinite n=%d", n), w, 0, n)
	}

	// NaN on the diagonal or off it (the debugchecks build rejects
	// non-finite input up front).
	if !debugChecksEnabled {
		for _, c := range []struct{ i, j int }{{0, 0}, {13, 13}, {3, 27}, {20, 21}} {
			w := gram(rng, 80, 30, nil)
			w.Set(c.i, c.j, math.NaN())
			w.Set(c.j, c.i, math.NaN())
			requireSameDecisions(t, fmt.Sprintf("NaN at (%d,%d)", c.i, c.j), w, 1e-5, 30)
		}
	}
}

// TestPCholCPDeterministicAcrossWidths pins the blocked factorization's
// bits at engine widths 1, 2 and 8, on sizes whose SYRKs fan out.
func TestPCholCPDeterministicAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{20, 130, 257} {
		w := gram(rng, 2*n, n, func(j int) float64 { return math.Pow(10, -float64(j%9)) })
		ref := PCholCP(parallel.NewEngine(1), w, 1e-5)
		for _, width := range []int{2, 8} {
			got := PCholCP(parallel.NewEngine(width), w, 1e-5)
			if got.NPiv != ref.NPiv || got.Breakdown != ref.Breakdown {
				t.Fatalf("n=%d width %d: NPiv %d breakdown %v, width 1 %d %v", n, width, got.NPiv, got.Breakdown, ref.NPiv, ref.Breakdown)
			}
			for j := range ref.Perm {
				if got.Perm[j] != ref.Perm[j] {
					t.Fatalf("n=%d width %d: perm differs at %d", n, width, j)
				}
			}
			for i, v := range ref.R.Data {
				if math.Float64bits(got.R.Data[i]) != math.Float64bits(v) {
					t.Fatalf("n=%d width %d: R differs at %d: %v vs %v", n, width, i, got.R.Data[i], v)
				}
			}
		}
	}
}
