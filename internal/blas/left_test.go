package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/mat"
)

// The differential test of the two left-side n×n kernels against their
// textbook math.FMA chains, on the tiles this machine runs and (through
// withAVX2Kernels) on the ymm tiles; under the purego tag the same test
// runs the Go loops. B is a strided view whose border must stay
// untouched, general or upper trapezoidal, with or without ±0, ±Inf and
// NaN; the triangle of A (or R) below the diagonal holds NaN, which the
// kernels must never read.

var leftNs = []int{1, 2, 3, 7, 8, 9, 17, 24, 25, 63, 64, 65, 130}

// refTrmm is TrmmLeftUpperNoTrans: every element of row i is the chain
// c = fma(A[i][t], B[t][j], c) from c = 0 over t = i, …, n−1.
func refTrmm(a, b *mat.Dense) *mat.Dense {
	n := b.Rows
	out := mat.NewDense(n, b.Cols)
	for i := 0; i < n; i++ {
		for j := 0; j < b.Cols; j++ {
			c := 0.0
			for t := i; t < n; t++ {
				c = math.FMA(a.At(i, t), b.At(t, j), c)
			}
			out.Set(i, j, c)
		}
	}
	return out
}

// refTrsmLeft is TrsmLeftUpperTrans: row by row,
// x[i][j] = fma(−R[t][i], x[t][j], x[i][j]) for t < i in order, then
// x[i][j]·(1/R[i][i]).
func refTrsmLeft(r, b *mat.Dense) *mat.Dense {
	x := b.Clone()
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < x.Cols; j++ {
			s := x.At(i, j)
			for t := 0; t < i; t++ {
				s = math.FMA(-r.At(t, i), x.At(t, j), s)
			}
			x.Set(i, j, s*(1/r.At(i, i)))
		}
	}
	return x
}

// leftOperand returns an r×c view (Stride > Cols) of normal entries into
// a larger matrix, and the larger matrix; with specials set about one
// in eight entries is ±0, ±Inf or NaN, and with upper set the entries
// below the diagonal are zero.
func leftOperand(rng *rand.Rand, r, c int, specials, upper bool) (view, big *mat.Dense) {
	big = mat.NewDense(r+2, c+3)
	for i := range big.Data {
		big.Data[i] = rng.NormFloat64()
		if specials && rng.Intn(8) == 0 {
			big.Data[i] = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(5)]
		}
	}
	view = big.Slice(1, 1+r, 2, 2+c)
	if upper {
		for i := 0; i < r; i++ {
			for j := 0; j < min(i, c); j++ {
				view.Set(i, j, 0)
			}
		}
	}
	return view, big
}

// nanBelowDiagonal is a well-conditioned upper triangular factor whose
// strict lower triangle holds NaN.
func nanBelowDiagonal(rng *rand.Rand, n int) *mat.Dense {
	r := randUpperWellCond(rng, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			r.Set(i, j, math.NaN())
		}
	}
	return r
}

// requireBorderUntouched checks that only the view's rows 1..rows and
// columns 2..cols+1 of big changed.
func requireBorderUntouched(t *testing.T, label string, big, before *mat.Dense, rows, cols int) {
	t.Helper()
	for i := 0; i < big.Rows; i++ {
		for j := 0; j < big.Cols; j++ {
			if i >= 1 && i < 1+rows && j >= 2 && j < 2+cols {
				continue
			}
			if !sameFloatBits(big.At(i, j), before.At(i, j)) {
				t.Fatalf("%s: wrote outside B at (%d,%d)", label, i, j)
			}
		}
	}
}

func TestLeftKernelsMatchFMAReference(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	paths := []struct {
		name string
		run  func(func())
	}{
		{"default", func(f func()) { f() }},
		{"ymm", withAVX2Kernels},
	}
	for _, n := range leftNs {
		for _, cols := range []int{1, 5, n, n + 13} {
			for _, specials := range []bool{false, true} {
				for _, upper := range []bool{false, true} {
					a := nanBelowDiagonal(rng, n)
					if specials {
						a.Set(0, n-1, math.Inf(1))
						a.Set(n/2, n/2, math.Copysign(0, -1)) // TRMM only: TRSM needs a nonzero diagonal
					}
					r := nanBelowDiagonal(rng, n)
					b, big := leftOperand(rng, n, cols, specials, upper)
					before := big.Clone()
					wantX := refTrsmLeft(r, b)
					for _, p := range paths {
						label := fmt.Sprintf("n=%d cols=%d specials=%v upper=%v %s", n, cols, specials, upper, p.name)
						big.Copy(before)
						wantM := refTrmm(a, b)
						p.run(func() { TrmmLeftUpperNoTrans(a, b) })
						requireSameDense(t, "TrmmLeftUpperNoTrans "+label, b, wantM)
						requireBorderUntouched(t, "TrmmLeftUpperNoTrans "+label, big, before, n, cols)

						big.Copy(before)
						p.run(func() { TrsmLeftUpperTrans(r, b) })
						requireSameDense(t, "TrsmLeftUpperTrans "+label, b, wantX)
						requireBorderUntouched(t, "TrsmLeftUpperTrans "+label, big, before, n, cols)
					}
					big.Copy(before)
				}
			}
		}
	}
}

// TestTrmmZeroNotSkipped pins the semantic change of the tiled TRMM: a
// zero entry of A no longer skips its row of B, so 0·Inf gives NaN where
// the row-axpy loop it replaced left the product out.
func TestTrmmZeroNotSkipped(t *testing.T) {
	for _, n := range []int{2, 9, 70} {
		a := mat.Identity(n)
		a.Set(0, n-1, 0) // a stored zero above the diagonal
		b := mat.NewDense(n, 3)
		for i := 0; i < n; i++ {
			b.Set(i, 0, 1)
			b.Set(i, 1, 2)
		}
		b.Set(n-1, 1, math.Inf(1))
		b.Set(n-1, 2, math.NaN())
		TrmmLeftUpperNoTrans(a, b)
		if got := b.At(0, 0); got != 1 {
			t.Fatalf("n=%d: (0,0) = %v, want 1", n, got)
		}
		for j := 1; j < 3; j++ {
			if got := b.At(0, j); !math.IsNaN(got) {
				t.Fatalf("n=%d: (0,%d) = %v, want NaN from 0·%v", n, j, got, b.At(n-1, j))
			}
		}
		if got := b.At(n-1, 1); !math.IsInf(got, 1) {
			t.Fatalf("n=%d: (%d,1) = %v, want +Inf", n, n-1, got)
		}
	}
}

// TestTrmmRowsAboveNotRead pins that a row's chains start on the
// diagonal whatever the tile height: an Inf or NaN in row k of B reaches
// no row below k through A's zeros below the diagonal, on the tiles this
// machine runs and on the ymm tiles. (A chain started at its row block's
// first row would turn the block's rows below k into NaN.)
func TestTrmmRowsAboveNotRead(t *testing.T) {
	for _, p := range []struct {
		name string
		run  func(func())
	}{
		{"default", func(f func()) { f() }},
		{"ymm", withAVX2Kernels},
	} {
		for _, k := range []int{1, 3, 5, 7, 9, 15} {
			const n, cols = 17, 30
			a := mat.Identity(n)
			b := mat.NewDense(n, cols)
			for i := range b.Data {
				b.Data[i] = float64(i%7) - 3
			}
			b.Set(k, 0, math.Inf(1))
			b.Set(k, cols-1, math.NaN())
			want := b.Clone()
			p.run(func() { TrmmLeftUpperNoTrans(a, b) })
			// Rows above k meet B's row k through A's stored zeros.
			requireSameDense(t, fmt.Sprintf("%s k=%d", p.name, k), b.Slice(k, n, 0, cols), want.Slice(k, n, 0, cols))
		}
	}
}
