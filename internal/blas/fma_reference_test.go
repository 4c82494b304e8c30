package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/mat"
)

// The differential test of every Level-3 entry point against textbook
// math.FMA loops: each output element is one fma chain over its
// summation index in ascending order, started where the slot partition
// (FusedSlots/FusedSlotBounds) says — from C itself when the sum has one
// slot, from zero per slot otherwise, the slot sums then added to C in
// slot order. The entry points must reproduce these chains bit for bit
// (a NaN matching any NaN) at every engine width, on Slice'd views, on
// row counts that are no multiple of a tile height, and on inputs
// holding ±0, ±Inf and NaN. The same test runs on the assembly and,
// under the purego tag, on the Go loops.

var fmaRefNs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 63, 64, 65, 129}

var fmaRefWidths = []int{1, 2, 3, 8}

// refRowSum runs chain(lo, hi, dst) over the slot partition of k
// summation rows into c, as reduceRows does: one slot accumulates into c
// directly, several into zeroed partials that are added to c (its upper
// triangle when upper is set) in slot order.
func refRowSum(k int, c *mat.Dense, upper bool, chain func(lo, hi int, dst *mat.Dense)) {
	slots := FusedSlots(k)
	if slots == 1 {
		chain(0, k, c)
		return
	}
	for s := 0; s < slots; s++ {
		lo, hi := FusedSlotBounds(k, slots, s)
		p := mat.NewDense(c.Rows, c.Cols)
		chain(lo, hi, p)
		for i := 0; i < c.Rows; i++ {
			j0 := 0
			if upper {
				j0 = i
			}
			for j := j0; j < c.Cols; j++ {
				c.Data[i*c.Stride+j] += p.At(i, j)
			}
		}
	}
}

// refGramChain is the upper-triangle Gram chain over rows [lo, hi) of a.
func refGramChain(a *mat.Dense) func(lo, hi int, dst *mat.Dense) {
	return func(lo, hi int, dst *mat.Dense) {
		for i := 0; i < a.Cols; i++ {
			for j := i; j < a.Cols; j++ {
				s := dst.At(i, j)
				for t := lo; t < hi; t++ {
					s = math.FMA(a.At(t, i), a.At(t, j), s)
				}
				dst.Set(i, j, s)
			}
		}
	}
}

// refGram is Gram: the slot sums of the chains, mirrored.
func refGram(a *mat.Dense) *mat.Dense {
	w := mat.NewDense(a.Cols, a.Cols)
	refRowSum(a.Rows, w, true, refGramChain(a))
	SymmetrizeFromUpper(w)
	return w
}

// refTrsm solves X := X·R⁻¹ row by row: x[j] = fma(−x[t], R[t][j], x[j])
// for t < j in order, then x[j]·(1/R[j][j]).
func refTrsm(x, r *mat.Dense) {
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < x.Cols; j++ {
			s := x.At(i, j)
			for t := 0; t < j; t++ {
				s = math.FMA(-x.At(i, t), r.At(t, j), s)
			}
			x.Set(i, j, s*(1/r.At(j, j)))
		}
	}
}

// refGemm is Gemm: C is scaled by beta, then every element takes
// c = fma(alpha·op(A)[i][t], op(B)[t][j], c) over t in order; Aᵀ·B sums
// over the slot partition of A's rows.
func refGemm(tA, tB Transpose, alpha float64, a, b *mat.Dense, beta float64, c *mat.Dense) {
	if beta != 1 {
		scaleMatrix(beta, c)
	}
	opA := func(i, t int) float64 {
		if tA == Trans {
			return a.At(t, i)
		}
		return a.At(i, t)
	}
	opB := func(t, j int) float64 {
		if tB == Trans {
			return b.At(j, t)
		}
		return b.At(t, j)
	}
	chain := func(lo, hi int, dst *mat.Dense) {
		for i := 0; i < dst.Rows; i++ {
			for j := 0; j < dst.Cols; j++ {
				s := dst.At(i, j)
				for t := lo; t < hi; t++ {
					s = math.FMA(alpha*opA(i, t), opB(t, j), s)
				}
				dst.Set(i, j, s)
			}
		}
	}
	k := a.Cols
	if tA == Trans {
		k = a.Rows
	}
	if alpha == 0 || k == 0 {
		return
	}
	if tA == Trans {
		refRowSum(k, c, false, chain)
		return
	}
	chain(0, k, c)
}

// refSyrkUpperTrans is SyrkUpperTrans, C −= AᵀA on the upper triangle:
// the Gram chains started from −C and negated back.
func refSyrkUpperTrans(a, c *mat.Dense) {
	neg := func() {
		for i := 0; i < c.Rows; i++ {
			for j := i; j < c.Cols; j++ {
				c.Set(i, j, -c.At(i, j))
			}
		}
	}
	neg()
	refRowSum(a.Rows, c, true, refGramChain(a))
	neg()
}

// fmaRefFill returns an r×c view (Stride > Cols) of normal entries; with
// specials set, about one in eight is ±0, ±Inf or NaN.
func fmaRefFill(rng *rand.Rand, r, c int, specials bool) *mat.Dense {
	big := mat.NewDense(r+2, c+3)
	for i := range big.Data {
		big.Data[i] = rng.NormFloat64()
		if specials && rng.Intn(8) == 0 {
			big.Data[i] = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(5)]
		}
	}
	return big.Slice(1, 1+r, 2, 2+c)
}

func requireSameDense(t *testing.T, label string, got, want *mat.Dense) {
	t.Helper()
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			if g, w := got.At(i, j), want.At(i, j); !sameFloatBits(g, w) {
				t.Fatalf("%s: (%d,%d) got %v (%#x), textbook fma chain %v (%#x)",
					label, i, j, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// panelCuts cuts [0, m) into panels that never straddle a slot, at
// pseudo-random heights that are no multiple of any tile or block.
func panelCuts(rng *rand.Rand, m int) [][3]int {
	slots := FusedSlots(m)
	var ps [][3]int
	for s := 0; s < slots; s++ {
		lo, hi := FusedSlotBounds(m, slots, s)
		for p := lo; p < hi; {
			q := min(hi, p+1+rng.Intn(97))
			ps = append(ps, [3]int{p, q, s})
			p = q
		}
	}
	return ps
}

func TestLevel3MatchesFMAReference(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	type shape struct{ m, n int }
	var shapes []shape
	for _, n := range fmaRefNs {
		shapes = append(shapes, shape{70, n})
	}
	// Several slots: the chains restart per slot and reduce in order.
	shapes = append(shapes, shape{2*fusedMinSlotRows + 101, 5}, shape{2*fusedMinSlotRows + 101, 64})
	for _, sh := range shapes {
		m, n := sh.m, sh.n
		for _, specials := range []bool{false, true} {
			a := fmaRefFill(rng, m, n, specials)
			r := randUpperWellCond(rng, n)
			perm := randPerm(rng, n)
			cn := fmaRefFill(rng, n, n, specials)
			cm := fmaRefFill(rng, m, n, specials)
			bn := fmaRefFill(rng, n, n, specials)

			wantGram := refGram(a)
			wantX := a.Clone()
			refTrsm(wantX, r)
			wantPX := a.Clone()
			mat.PermuteColsInPlace(wantPX, perm)
			refTrsm(wantPX, r)
			wantPG := refGram(wantPX)
			wantNN := cm.Clone()
			refGemm(NoTrans, NoTrans, -1.25, a, bn, 1, wantNN)
			wantTN := cn.Clone()
			refGemm(Trans, NoTrans, 0.75, a, a, 1, wantTN)
			wantNT := cm.Clone()
			refGemm(NoTrans, Trans, 1, a, bn, 0.5, wantNT)
			wantSyrk := cn.Clone()
			refSyrkUpperTrans(a, wantSyrk)
			cuts := panelCuts(rng, m)

			for _, wk := range fmaRefWidths {
				e := parallel.NewEngine(wk)
				label := func(k string) string {
					return fmt.Sprintf("%s m=%d n=%d specials=%v width=%d", k, m, n, specials, wk)
				}
				g := mat.NewDense(n, n)
				Gram(e, g, a)
				requireSameDense(t, label("Gram"), g, wantGram)

				accs := make([]*mat.Dense, FusedSlots(m))
				for i := range accs {
					accs[i] = mat.NewDense(n, n)
				}
				for _, p := range cuts {
					GramPanelAcc(e, a.Slice(p[0], p[1], 0, n), accs[p[2]])
				}
				ReduceGramSlots(g, accs)
				requireSameDense(t, label("GramPanelAcc"), g, wantGram)

				x := a.Clone()
				TrsmRightUpperNoTrans(e, x, r)
				requireSameDense(t, label("TrsmRightUpperNoTrans"), x, wantX)

				x = a.Clone()
				PermTrsmGramFused(e, x, perm, r, g)
				requireSameDense(t, label("PermTrsmGramFused B"), x, wantPX)
				requireSameDense(t, label("PermTrsmGramFused G"), g, wantPG)

				x = a.Clone()
				for i := range accs {
					accs[i].Zero()
				}
				for _, p := range cuts {
					FusedPanelPivot(e, x.Slice(p[0], p[1], 0, n), perm, r, accs[p[2]])
				}
				ReduceGramSlots(g, accs)
				requireSameDense(t, label("FusedPanelPivot B"), x, wantPX)
				requireSameDense(t, label("FusedPanelPivot G"), g, wantPG)

				c := cm.Clone()
				Gemm(e, NoTrans, NoTrans, -1.25, a, bn, 1, c)
				requireSameDense(t, label("Gemm NN"), c, wantNN)
				c = cn.Clone()
				Gemm(e, Trans, NoTrans, 0.75, a, a, 1, c)
				requireSameDense(t, label("Gemm TN"), c, wantTN)
				c = cm.Clone()
				Gemm(e, NoTrans, Trans, 1, a, bn, 0.5, c)
				requireSameDense(t, label("Gemm NT"), c, wantNT)

				c = cn.Clone()
				SyrkUpperTrans(e, a, c)
				requireSameDense(t, label("SyrkUpperTrans"), c, wantSyrk)
			}
		}
	}
	checkScatterRowsFMA(t, rng)
	checkGramZeroTimesInf(t)
}

// checkScatterRowsFMA: every target row takes
// acc[j] = fma(w, row[j], acc[j]), targets in order.
func checkScatterRowsFMA(t *testing.T, rng *rand.Rand) {
	for _, n := range fmaRefNs {
		for _, specials := range []bool{false, true} {
			acc := fmaRefFill(rng, 9, n, specials)
			row := fmaRefFill(rng, 1, n, specials).Data[:n]
			targets := []int{4, 0, 8, 4, 3}
			w := []float64{0.5, -1.25, math.Copysign(0, -1), math.Inf(1), 3e300}
			want := acc.Clone()
			for k, tk := range targets {
				for j, v := range row {
					want.Set(tk, j, math.FMA(w[k], v, want.At(tk, j)))
				}
			}
			ScatterRows(acc, row, targets, w)
			requireSameDense(t, fmt.Sprintf("ScatterRows n=%d specials=%v", n, specials), acc, want)
		}
	}
}

// checkGramZeroTimesInf pins the one semantic change of the fma chain:
// no product is skipped for a zero factor, so 0·Inf gives NaN in Gram.
func checkGramZeroTimesInf(t *testing.T) {
	for _, m := range []int{2, 70} {
		a := mat.NewDense(m, 2)
		a.Set(0, 1, math.Inf(1))
		for i := 1; i < m; i++ {
			a.Set(i, 0, 1)
			a.Set(i, 1, 1)
		}
		w := mat.NewDense(2, 2)
		Gram(nil, w, a)
		if !math.IsNaN(w.At(0, 1)) || !math.IsNaN(w.At(1, 0)) {
			t.Fatalf("m=%d: W[0][1] = %v, want NaN from 0·Inf", m, w.At(0, 1))
		}
		if w.At(0, 0) != float64(m-1) {
			t.Fatalf("m=%d: W[0][0] = %v, want %d", m, w.At(0, 0), m-1)
		}
	}
}
