package blas

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/mat"
)

// The kernel conformance suite: accuracy of the hot kernels against the
// elementwise references, bit-identical results across engine widths,
// and allocation-free width-1 paths.

// sameBits fails unless got and want are bit-identical.
func sameBits(t *testing.T, label string, got, want *mat.Dense) {
	t.Helper()
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			g := got.Data[i*got.Stride+j]
			w := want.Data[i*want.Stride+j]
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s[%d,%d]: %x vs reference %x", label, i, j,
					math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
}

func TestKernelConformance(t *testing.T) {
	t.Run("Gemm", testKernelGemm)
	t.Run("Syrk", testKernelSyrk)
	t.Run("Trsm", testKernelTrsm)
	t.Run("Fused", testKernelFused)
	t.Run("SparseSign", testKernelSparseSign)
	t.Run("WidthDeterminism", testKernelWidthDeterminism)
	t.Run("SequentialAllocFree", testKernelAllocFree)
}

// kernelTol is the relative accuracy of the float64 accumulations against
// the elementwise references: differences are rounding-order noise.
const kernelTol = 1e-10

// testKernelGemm checks the three supported transpose combinations
// against the elementwise reference, sized past gemmParallelFlops so the
// parallel paths engage, on shapes whose m and k leave 1–3 rows and
// summation rows past the last quad (k = 263 also crosses kBlock).
func testKernelGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	e := parallel.NewEngine(4)
	for _, sh := range []struct{ m, n, k int }{{150, 40, 60}, {151, 37, 263}, {7, 5, 3}} {
		m, n, k := sh.m, sh.n, sh.k
		for _, tc := range []struct{ tA, tB Transpose }{
			{NoTrans, NoTrans}, {Trans, NoTrans}, {NoTrans, Trans},
		} {
			ar, ac, br, bc := m, k, k, n
			if tc.tA == Trans {
				ar, ac = k, m
			}
			if tc.tB == Trans {
				br, bc = n, k
			}
			a := randDenseStrided(rng, ar, ac)
			b := randDenseStrided(rng, br, bc)
			c := randDense(rng, m, n)
			want := c.Clone()
			Gemm(e, tc.tA, tc.tB, 1.5, a, b, 0.5, c)
			naiveGemm(tc.tA, tc.tB, 1.5, a, b, 0.5, want)
			checkULPClose(t, "C", c, want, 1e-12*float64(k))
		}
	}
}

// testKernelSyrk compares the Gram accumulation against the elementwise
// float64 reference. The error bound scales with the summation length:
// a dot product of m unit-variance terms has magnitude ~m on the
// diagonal, and kernelTol is relative to that scale.
func testKernelSyrk(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	e := parallel.NewEngine(4)
	const m, n = 4500, 16 // > 1 reduction slot, parallel path engaged
	a := randDenseStrided(rng, m, n)
	c := randDense(rng, n, n)
	want := c.Clone()
	SyrkUpperTrans(e, a, c)
	naiveSyrkUpper(-1, a, 1, want)
	bound := kernelTol * float64(m)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			g := c.Data[i*c.Stride+j]
			w := want.Data[i*want.Stride+j]
			if d := math.Abs(g - w); d > bound {
				t.Fatalf("G[%d,%d]: %v vs reference %v (|diff| %g > %g)", i, j, g, w, d, bound)
			}
		}
	}
}

// testKernelTrsm solves B := B·R⁻¹ and multiplies back: X·R must
// reconstruct the original B.
func testKernelTrsm(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	e := parallel.NewEngine(4)
	const m, n = 3000, 24
	b := randDenseStrided(rng, m, n)
	r := randUpperWellCond(rng, n)
	b0 := b.Clone()
	TrsmRightUpperNoTrans(e, b, r)
	recon := mat.NewDense(m, n)
	naiveGemm(NoTrans, NoTrans, 1, b, r, 0, recon)
	checkULPClose(t, "B·R⁻¹·R", recon, b0, 1e-11*float64(n))
}

// testKernelFused checks the fused permute→TRSM→Gram pass against the
// unfused composition of the same kernels.
func testKernelFused(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	e := parallel.NewEngine(4)
	const m, n = 4500, 24
	b := randDense(rng, m, n)
	r := randUpperWellCond(rng, n)
	perm := randPerm(rng, n)

	bRef := b.Clone()
	gRef := mat.NewDense(n, n)
	refPermTrsmGram(e, bRef, perm, r, gRef)

	g := mat.NewDense(n, n)
	PermTrsmGramFused(e, b, perm, r, g)
	checkULPClose(t, "B", b, bRef, 1e-11)
	checkULPClose(t, "G", g, gRef, kernelTol)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if g.Data[i*g.Stride+j] != g.Data[j*g.Stride+i] {
				t.Fatalf("G not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

// testKernelSparseSign checks SparseSignMulAdd on strided views
// against the elementwise reference bit for bit (w is a power of two, so
// each product is exact and one fma is one multiply and one add), with
// an empty row, a row of every input row, and masks of both signs, on
// widths on both sides of the 4-, 16- and 64-wide vector loops.
func testKernelSparseSign(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rows := []uint64{0x8c1, 0, 0xfff, 0x804}
	neg := []uint64{0x881, 0x3, 0x5a5, 0}
	const w = 0.25
	for _, n := range []int{1, 3, 16, 33, 64, 70} {
		c := randDenseStrided(rng, 4, n)
		b := randDenseStrided(rng, 12, n)
		want := c.Clone()
		SparseSignMulAdd(c, rows, neg, w, b)
		for r, m := range rows {
			for i := 0; i < b.Rows; i++ {
				if m>>i&1 == 0 {
					continue
				}
				wi := w
				if neg[r]>>i&1 == 1 {
					wi = -w
				}
				for j := 0; j < n; j++ {
					want.Set(r, j, want.At(r, j)+wi*b.At(i, j))
				}
			}
		}
		sameBits(t, "SparseSignMulAdd", c, want)
	}
	// A bit past B's last row panics even where the parent matrix's
	// storage continues.
	parent := mat.NewDense(6, 4)
	view := parent.Slice(1, 4, 0, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("SparseSignMulAdd bit past the view did not panic")
		}
	}()
	SparseSignMulAdd(mat.NewDense(1, 4), []uint64{1 << 3}, []uint64{0}, 1, view)
}

// testKernelWidthDeterminism checks the determinism contract: every
// kernel that reduces over rows (Gram, SyrkUpperTrans, Gemm Aᵀ·B,
// Gemv Aᵀ·x, the fused pass) and the row-parallel ones (Gemm A·B and
// A·Bᵀ, TRSM) are bit-identical across engine widths.
func testKernelWidthDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const m, n = 8192, 24 // several slots, parallel paths engaged
	a0 := randDense(rng, m, n)
	b0 := randDense(rng, m, n)
	sq := randDense(rng, n, n)
	x := b0.Data[:m]
	r := randUpperWellCond(rng, n)
	perm := randPerm(rng, n)

	type result struct{ gram, gemmTN, gemmNN, gemmNT, gemv, syrk, trsm, fusedB, fusedG *mat.Dense }
	run := func(w int) result {
		e := parallel.NewEngine(w)
		var res result
		res.gram = mat.NewDense(n, n)
		Gram(e, res.gram, a0)
		res.gemmTN = mat.NewDense(n, n)
		Gemm(e, Trans, NoTrans, 1, a0, b0, 0, res.gemmTN)
		res.gemmNN = b0.Clone()
		Gemm(e, NoTrans, NoTrans, -1.5, a0, sq, 1, res.gemmNN)
		res.gemmNT = b0.Clone()
		Gemm(e, NoTrans, Trans, 0.75, a0, sq, 1, res.gemmNT)
		res.gemv = mat.NewDense(1, n)
		Gemv(e, Trans, 1.25, a0, x, 0, res.gemv.Data)
		res.syrk = mat.NewDense(n, n)
		SyrkUpperTrans(e, a0, res.syrk)
		res.trsm = b0.Clone()
		TrsmRightUpperNoTrans(e, res.trsm, r)
		res.fusedB = b0.Clone()
		res.fusedG = mat.NewDense(n, n)
		PermTrsmGramFused(e, res.fusedB, perm, r, res.fusedG)
		return res
	}

	ref := run(1)
	for _, w := range []int{2, 3, 8} {
		got := run(w)
		sameBits(t, "Gram", got.gram, ref.gram)
		sameBits(t, "Gemm TN", got.gemmTN, ref.gemmTN)
		sameBits(t, "Gemm NN", got.gemmNN, ref.gemmNN)
		sameBits(t, "Gemm NT", got.gemmNT, ref.gemmNT)
		sameBits(t, "Gemv T", got.gemv, ref.gemv)
		sameBits(t, "Syrk", got.syrk, ref.syrk)
		sameBits(t, "Trsm", got.trsm, ref.trsm)
		sameBits(t, "Fused.B", got.fusedB, ref.fusedB)
		sameBits(t, "Fused.G", got.fusedG, ref.fusedG)
	}
}

// testKernelAllocFree pins the pooled-workspace invariant: on a width-1
// engine, each kernel performs zero heap allocations once the pools are
// warm, on one reduction slot and on several.
func testKernelAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops puts at random; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(29))
	e := parallel.NewEngine(1)
	const n = 16
	for _, m := range []int{2000, 9000} {
		a := randDense(rng, m, n)
		b := randDense(rng, m, n)
		r := randUpperWellCond(rng, n)
		perm := randPerm(rng, n)
		c := mat.NewDense(n, n)
		c2, a64 := c.Slice(0, 2, 0, n), a.Slice(0, 64, 0, n)
		g := mat.NewDense(n, n)

		kernels := []struct {
			label string
			run   func()
		}{
			{"Gram", func() { Gram(e, g, a) }},
			{"Gemm", func() { Gemm(e, Trans, NoTrans, 1, a, b, 0, c) }},
			{"Syrk", func() { SyrkUpperTrans(e, a, c) }},
			{"GemvT", func() { Gemv(e, Trans, 1, a, b.Data[:m], 0, c.Data[:n]) }},
			{"Trsm", func() { TrsmRightUpperNoTrans(e, b, r) }},
			{"Fused", func() { PermTrsmGramFused(e, b, perm, r, g) }},
			{"SparseSign", func() { SparseSignMulAdd(c2, []uint64{0x9, 1 << 63}, []uint64{1, 0}, 0.5, a64) }},
		}
		for _, k := range kernels {
			k.run() // warm the pools
			if allocs := testing.AllocsPerRun(5, k.run); allocs != 0 {
				t.Errorf("m=%d %s: %v allocations per sequential run, want 0", m, k.label, allocs)
			}
		}
	}
}
