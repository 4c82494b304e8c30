package blas

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/mat"
)

// randUpperWellCond returns an n×n upper-triangular R with diagonal in
// [1, 2] and small off-diagonal entries, so R⁻¹ does not amplify rounding.
func randUpperWellCond(rng *rand.Rand, n int) *mat.Dense {
	r := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		r.Data[i*r.Stride+i] = 1 + rng.Float64()
		for j := i + 1; j < n; j++ {
			r.Data[i*r.Stride+j] = 0.25 * (rng.Float64() - 0.5)
		}
	}
	return r
}

// kahanUpper returns the classic n×n Kahan matrix
// diag(1, s, s², …)·(I − c·U) with s = sin θ, c = cos θ: upper triangular,
// graded, and famously adversarial for pivoted factorizations.
func kahanUpper(n int, theta float64) *mat.Dense {
	s, c := math.Sin(theta), math.Cos(theta)
	r := mat.NewDense(n, n)
	scale := 1.0
	for i := 0; i < n; i++ {
		r.Data[i*r.Stride+i] = scale
		for j := i + 1; j < n; j++ {
			r.Data[i*r.Stride+j] = -c * scale
		}
		scale *= s
	}
	return r
}

// kahanTallStack stacks row-scaled copies of the Kahan row pattern into a
// tall m×n matrix whose column norms span many orders of magnitude.
// (testmat.KahanTall cannot be used here: testmat imports internal/blas.)
func kahanTallStack(rng *rand.Rand, m, n int, theta float64) *mat.Dense {
	k := kahanUpper(n, theta)
	a := mat.NewDense(m, n)
	for i := 0; i < m; i++ {
		src := k.Data[(i%n)*k.Stride : (i%n)*k.Stride+n]
		sign := 1.0
		if rng.Intn(2) == 1 {
			sign = -1
		}
		for j := 0; j < n; j++ {
			a.Data[i*a.Stride+j] = sign * src[j] * (1 + 1e-8*rng.NormFloat64())
		}
	}
	return a
}

func randPerm(rng *rand.Rand, n int) mat.Perm {
	return mat.Perm(rng.Perm(n))
}

// refPermTrsmGram is the unfused reference: permute, solve, then Gram as
// three separate sweeps.
func refPermTrsmGram(e *parallel.Engine, b *mat.Dense, perm mat.Perm, r, g *mat.Dense) {
	if perm != nil {
		mat.PermuteColsInPlaceEngine(e, b, perm)
	}
	TrsmRightUpperNoTrans(e, b, r)
	Gram(e, g, b)
}

// checkULPClose asserts got matches want elementwise to within a small
// relative tolerance.
func checkULPClose(t *testing.T, name string, got, want *mat.Dense, relTol float64) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %d×%d vs %d×%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			gv := got.Data[i*got.Stride+j]
			wv := want.Data[i*want.Stride+j]
			scale := math.Max(math.Abs(gv), math.Abs(wv))
			if scale < 1e-300 {
				continue
			}
			if math.Abs(gv-wv) > relTol*scale {
				t.Fatalf("%s[%d,%d]: %v vs reference %v (rel %g)",
					name, i, j, gv, wv, math.Abs(gv-wv)/scale)
			}
		}
	}
}

func TestPermTrsmGramFusedMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := parallel.NewEngine(4)
	shapes := []struct{ m, n int }{
		{1, 1}, {3, 2}, {5, 3}, {63, 7}, {64, 8}, {65, 8},
		{257, 16}, {1000, 24}, {4113, 32}, {9001, 11},
	}
	for _, sh := range shapes {
		b := randDenseStrided(rng, sh.m, sh.n)
		r := randUpperWellCond(rng, sh.n)
		perm := randPerm(rng, sh.n)

		bRef := b.Clone()
		gRef := mat.NewDense(sh.n, sh.n)
		refPermTrsmGram(e, bRef, perm, r, gRef)

		g := mat.NewDense(sh.n, sh.n)
		PermTrsmGramFused(e, b, perm, r, g)

		bitsEqualDense(t, "B", b, bRef)
		bitsEqualDense(t, "G", g, gRef)
		for i := 0; i < sh.n; i++ {
			for j := 0; j < i; j++ {
				if g.Data[i*g.Stride+j] != g.Data[j*g.Stride+i] {
					t.Fatalf("m=%d n=%d: G not symmetric at (%d,%d)", sh.m, sh.n, i, j)
				}
			}
		}
	}
}

// TestPermTrsmGramFusedIntoMatchesInPlace: the out-of-place pass leaves
// its source alone and gives the bits of the in-place pass and of the
// unfused sweeps, for permutations that fix a leading block of columns
// (the gather skips it in place and copies it out of place), for nil,
// and on strided views.
func TestPermTrsmGramFusedIntoMatchesInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	e := parallel.NewEngine(2)
	for _, sh := range []struct{ m, n int }{{1, 1}, {65, 8}, {257, 16}, {4113, 32}} {
		for _, p0 := range []int{-1, 0, 1, sh.n / 2, sh.n} {
			var perm mat.Perm
			if p0 >= 0 {
				perm = mat.IdentityPerm(sh.n)
				for j, v := range randPerm(rng, sh.n-p0) {
					perm[p0+j] = p0 + v
				}
			}
			b := randDenseStrided(rng, sh.m, sh.n)
			r := randUpperWellCond(rng, sh.n)
			orig := b.Clone()
			dst := randDenseStrided(rng, sh.m, sh.n)
			g := mat.NewDense(sh.n, sh.n)
			PermTrsmGramFusedInto(e, dst, b, perm, r, g)
			bitsEqualDense(t, "source", b, orig)

			bRef, gRef := b.Clone(), mat.NewDense(sh.n, sh.n)
			refPermTrsmGram(e, bRef, perm, r, gRef)
			bitsEqualDense(t, "dst", dst, bRef)
			bitsEqualDense(t, "G", g, gRef)
			PermTrsmGramFused(e, b, perm, r, g)
			bitsEqualDense(t, "in place", b, bRef)
			bitsEqualDense(t, "in-place G", g, gRef)
		}
	}
}

func TestPermTrsmGramFusedNilPermIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := parallel.NewEngine(2)
	b := randDense(rng, 300, 12)
	r := randUpperWellCond(rng, 12)

	bRef := b.Clone()
	gRef := mat.NewDense(12, 12)
	refPermTrsmGram(e, bRef, nil, r, gRef)

	g := mat.NewDense(12, 12)
	PermTrsmGramFused(e, b, nil, r, g)
	bitsEqualDense(t, "B", b, bRef)
	checkULPClose(t, "G", g, gRef, 1e-12)
}

// TestPermTrsmGramFusedKahan exercises the fused pass on a graded
// Kahan-type matrix solved against the Kahan triangle itself, where the
// intermediate magnitudes span many orders of magnitude.
func TestPermTrsmGramFusedKahan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := parallel.NewEngine(4)
	const m, n = 3000, 24
	b := kahanTallStack(rng, m, n, 1.2)
	r := kahanUpper(n, 1.2)
	perm := randPerm(rng, n)

	bRef := b.Clone()
	gRef := mat.NewDense(n, n)
	refPermTrsmGram(e, bRef, perm, r, gRef)

	g := mat.NewDense(n, n)
	PermTrsmGramFused(e, b, perm, r, g)
	bitsEqualDense(t, "B", b, bRef)
	checkULPClose(t, "G", g, gRef, 1e-10)
}

// TestPermTrsmGramFusedDeterministicAcrossWidths is the dist-lockstep
// contract: the fused pass must produce bit-identical B and G for every
// engine width, because distributed ranks replicate the downstream
// Cholesky on G and diverge on any single-bit difference.
func TestPermTrsmGramFusedDeterministicAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, sh := range []struct{ m, n int }{{1000, 8}, {8192, 32}, {50000, 16}} {
		b0 := randDense(rng, sh.m, sh.n)
		r := randUpperWellCond(rng, sh.n)
		perm := randPerm(rng, sh.n)

		var refB, refG *mat.Dense
		for _, w := range []int{1, 2, 8} {
			e := parallel.NewEngine(w)
			b := b0.Clone()
			g := mat.NewDense(sh.n, sh.n)
			PermTrsmGramFused(e, b, perm, r, g)
			if refB == nil {
				refB, refG = b, g
				continue
			}
			for i := 0; i < sh.m; i++ {
				for j := 0; j < sh.n; j++ {
					got := b.Data[i*b.Stride+j]
					want := refB.Data[i*refB.Stride+j]
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("m=%d n=%d width %d: B[%d,%d] = %x, width 1 = %x",
							sh.m, sh.n, w, i, j, math.Float64bits(got), math.Float64bits(want))
					}
				}
			}
			for i := 0; i < sh.n; i++ {
				for j := 0; j < sh.n; j++ {
					got := g.Data[i*g.Stride+j]
					want := refG.Data[i*refG.Stride+j]
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("m=%d n=%d width %d: G[%d,%d] = %x, width 1 = %x",
							sh.m, sh.n, w, i, j, math.Float64bits(got), math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestPermTrsmGramFusedLeadingGram: with a k×k G the fused pass emits
// the Gram of the updated B's leading k columns, bit for bit the leading
// block of the n×n G and Gram of those columns, at every engine width and
// through a multi-slot reduction; B is unchanged by the narrower G. A G
// wider than B or not square panics.
func TestPermTrsmGramFusedLeadingGram(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const m, n = 3*fusedMinSlotRows + 77, 20
	if FusedSlots(m) < 3 {
		t.Fatalf("m=%d gives %d slots, want several", m, FusedSlots(m))
	}
	b0 := randDenseStrided(rng, m, n)
	r := randUpperWellCond(rng, n)
	perm := randPerm(rng, n)
	for _, w := range []int{1, 2, 8} {
		e := parallel.NewEngine(w)
		bFull, gFull := b0.Clone(), mat.NewDense(n, n)
		PermTrsmGramFused(e, bFull, perm, r, gFull)
		for _, k := range []int{1, 5, n - 1} {
			b, g := b0.Clone(), mat.NewDense(k, k)
			PermTrsmGramFused(e, b, perm, r, g)
			bitsEqualDense(t, "B", b, bFull)
			bitsEqualDense(t, "G vs leading block", g, gFull.Slice(0, k, 0, k))
			gRef := mat.NewDense(k, k)
			Gram(e, gRef, b.Slice(0, m, 0, k))
			bitsEqualDense(t, "G vs Gram", g, gRef)
		}
	}
	b := b0.Clone()
	mustPanicB(t, func() { PermTrsmGramFused(parallel.Default, b, perm, r, mat.NewDense(n+1, n+1)) })
	mustPanicB(t, func() { PermTrsmGramFused(parallel.Default, b, perm, r, mat.NewDense(5, 6)) })
}
