package blas

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/mat"
)

func bitsEqualDense(t *testing.T, label string, got, want *mat.Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %d×%d vs %d×%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			g := got.Data[i*got.Stride+j]
			w := want.Data[i*want.Stride+j]
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: (%d,%d) bits %#x vs %#x", label, i, j,
					math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
}

// gridPanels cuts [0,m) into panels of step rows that never straddle a
// slot: each slot split at step-multiples of its own lower bound — the
// same schedule the out-of-core sweeps use.
type gridPanel struct{ lo, hi, slot int }

func gridPanels(m, step int) []gridPanel {
	slots := FusedSlots(m)
	var ps []gridPanel
	for si := 0; si < slots; si++ {
		lo, hi := FusedSlotBounds(m, slots, si)
		for p := lo; p < hi; p += step {
			q := p + step
			if q > hi {
				q = hi
			}
			ps = append(ps, gridPanel{p, q, si})
		}
	}
	return ps
}

// TestGramMatchesReference: Gram agrees with the elementwise reference
// to rounding — relative to the summation length, since off-diagonal
// entries can cancel — and is exactly symmetric.
func TestGramMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	e := parallel.NewEngine(4)
	for _, sh := range []struct{ m, n int }{{1, 1}, {5, 3}, {63, 7}, {64, 8}, {257, 16}, {5000, 24}, {9001, 11}} {
		a := randDenseStrided(rng, sh.m, sh.n)
		want := mat.NewDense(sh.n, sh.n)
		naiveSyrkUpper(1, a, 0, want)
		SymmetrizeFromUpper(want)
		got := mat.NewDense(sh.n, sh.n)
		Gram(e, got, a)
		bound := 1e-14 * float64(sh.m)
		for i := 0; i < sh.n; i++ {
			for j := 0; j < sh.n; j++ {
				if d := math.Abs(got.At(i, j) - want.At(i, j)); d > bound {
					t.Fatalf("m=%d n=%d: W[%d,%d] = %v vs reference %v (|diff| %g > %g)",
						sh.m, sh.n, i, j, got.At(i, j), want.At(i, j), d, bound)
				}
				if j < i && got.Data[i*got.Stride+j] != got.Data[j*got.Stride+i] {
					t.Fatalf("m=%d n=%d: W not symmetric at (%d,%d)", sh.m, sh.n, i, j)
				}
			}
		}
	}
}

// TestGramDeterministicAcrossWidths: the fixed summation order is the
// whole point — every engine width produces identical bits.
func TestGramDeterministicAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, sh := range []struct{ m, n int }{{1000, 8}, {8192, 32}, {50000, 16}} {
		a := randDense(rng, sh.m, sh.n)
		var ref *mat.Dense
		for _, w := range []int{1, 2, 3, 8} {
			got := mat.NewDense(sh.n, sh.n)
			Gram(parallel.NewEngine(w), got, a)
			if ref == nil {
				ref = got
				continue
			}
			bitsEqualDense(t, "Gram", got, ref)
		}
	}
}

// TestGramPanelAccMatchesGram: accumulating panel-by-panel inside the
// slots, at any panel height, and reducing the per-slot partials reproduces Gram bit for bit —
// the Gram half of the out-of-core bit-identity contract.
func TestGramPanelAccMatchesGram(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	e := parallel.NewEngine(4)
	for _, sh := range []struct{ m, n int }{{64, 8}, {1000, 24}, {9001, 16}} {
		a := randDense(rng, sh.m, sh.n)
		want := mat.NewDense(sh.n, sh.n)
		Gram(e, want, a)
		for _, step := range []int{37, 64, 100, 192, 517, 1 << 20} {
			accs := make([]*mat.Dense, FusedSlots(sh.m))
			for i := range accs {
				accs[i] = mat.NewDense(sh.n, sh.n)
			}
			for _, p := range gridPanels(sh.m, step) {
				GramPanelAcc(e, a.Slice(p.lo, p.hi, 0, sh.n), accs[p.slot])
			}
			got := mat.NewDense(sh.n, sh.n)
			ReduceGramSlots(got, accs)
			bitsEqualDense(t, "W", got, want)
		}
	}
}

// TestFusedPanelPivotMatchesFused: the panelled permute→TRSM→Gram pass
// inside the slots, at any panel height, reproduces PermTrsmGramFused bit for bit, in both
// the transformed matrix and the Gram accumulator — the fused half of
// the out-of-core bit-identity contract.
func TestFusedPanelPivotMatchesFused(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	e := parallel.NewEngine(4)
	for _, sh := range []struct{ m, n int }{{64, 8}, {1000, 24}, {9001, 16}} {
		b0 := randDense(rng, sh.m, sh.n)
		r := randUpperWellCond(rng, sh.n)
		perm := randPerm(rng, sh.n)

		bWant := b0.Clone()
		gWant := mat.NewDense(sh.n, sh.n)
		PermTrsmGramFused(e, bWant, perm, r, gWant)

		for _, step := range []int{37, 64, 100, 192, 517, 1 << 20} {
			b := b0.Clone()
			accs := make([]*mat.Dense, FusedSlots(sh.m))
			for i := range accs {
				accs[i] = mat.NewDense(sh.n, sh.n)
			}
			for _, p := range gridPanels(sh.m, step) {
				FusedPanelPivot(e, b.Slice(p.lo, p.hi, 0, sh.n), perm, r, accs[p.slot])
			}
			g := mat.NewDense(sh.n, sh.n)
			ReduceGramSlots(g, accs)
			bitsEqualDense(t, "B", b, bWant)
			bitsEqualDense(t, "G", g, gWant)
		}
	}
}
