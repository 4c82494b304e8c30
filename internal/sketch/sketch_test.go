package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/mat"
)

func randDense(rng *rand.Rand, m, n int) *mat.Dense {
	a := mat.NewDense(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	return a
}

// refSparse replays the sparse-sign kernel's stream consumption row by
// row in ascending order, and blas.ReduceRows's slot partition: each
// slot of blas.FusedSlots(m) sums its rows into a zeroed partial (into sa
// itself when there is one slot), and the partials add into sa in slot
// order. That is the kernel's summation order at every engine width, so
// the comparison is bitwise.
func refSparse(sa, a *mat.Dense, nnz int, seed uint64) {
	sa.Zero()
	slots := blas.FusedSlots(a.Rows)
	if slots == 1 {
		refSparseRows(sa, a, nnz, seed, 0, a.Rows)
		return
	}
	part := mat.NewDense(sa.Rows, sa.Cols)
	for si := 0; si < slots; si++ {
		lo, hi := blas.FusedSlotBounds(a.Rows, slots, si)
		part.Zero()
		refSparseRows(part, a, nnz, seed, lo, hi)
		for i := range sa.Data {
			sa.Data[i] += part.Data[i]
		}
	}
}

// refSparseRows adds rows [lo, hi) of a into acc the textbook way: per
// row, nnz distinct targets drawn by Intn(d) with redraws, then one sign
// draw per target, then one fma per element, targets in draw order.
func refSparseRows(acc, a *mat.Dense, nnz int, seed uint64, lo, hi int) {
	d, n := acc.Rows, acc.Cols
	scale := 1 / math.Sqrt(float64(nnz))
	targets := make([]int, nnz)
	for i := lo; i < hi; i++ {
		src := rowSource(seed, i)
		for t := 0; t < nnz; t++ {
			for {
				r := src.Intn(d)
				dup := false
				for u := 0; u < t; u++ {
					if targets[u] == r {
						dup = true
						break
					}
				}
				if !dup {
					targets[t] = r
					break
				}
			}
		}
		row := a.Data[i*a.Stride : i*a.Stride+n]
		for t := 0; t < nnz; t++ {
			s := scale
			if src.Uint64()&1 == 1 {
				s = -scale
			}
			dst := acc.Data[targets[t]*acc.Stride : targets[t]*acc.Stride+n]
			for j, v := range row {
				dst[j] = math.FMA(s, v, dst[j])
			}
		}
	}
}

// sketchShapes cover widths on both sides of the vector loops, d past
// the 64-bit duplicate mask, odd d, nnz = d, d past one target window
// (1024 rows), and (m ≥ 4096) the multi-slot reduction at d = 64 and
// d = 129.
var sketchShapes = []struct{ m, n, d, nnz int }{
	{1, 1, 2, 1}, {7, 3, 6, 2}, {100, 8, 16, 4}, {1999, 24, 48, 8},
	{300, 1, 8, 8}, {300, 4, 7, 7}, {300, 5, 64, 64}, {300, 31, 62, 8},
	{300, 32, 64, 8}, {300, 33, 130, 8}, {300, 64, 128, 8}, {4000, 64, 129, 3},
	{200, 5, 2100, 8}, {70, 3, 65, 64},
	{8192, 32, 64, 8}, {6000, 9, 64, 8}, {4096, 17, 129, 8}, {9000, 40, 129, 5},
}

// stridedDense returns an m×n view with Stride > Cols and normal entries.
func stridedDense(rng *rand.Rand, m, n int) *mat.Dense {
	return randDense(rng, m+2, n+3).Slice(1, 1+m, 2, 2+n)
}

func requireSameSketch(t *testing.T, label string, got, want *mat.Dense) {
	t.Helper()
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			g, w := got.At(i, j), want.At(i, j)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: sketch differs from replayed reference at (%d,%d): %v vs %v", label, i, j, g, w)
			}
		}
	}
}

func TestApplySparseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range sketchShapes {
		for _, strided := range []bool{false, true} {
			a := randDense(rng, sh.m, sh.n)
			if strided {
				a = stridedDense(rng, sh.m, sh.n)
			}
			ref := mat.NewDense(sh.d, sh.n)
			refSparse(ref, a, sh.nnz, 42)
			for _, w := range []int{1, 2} {
				sa := mat.NewDense(sh.d, sh.n)
				ApplySparse(parallel.NewEngine(w), sa, a, sh.nnz, 42)
				requireSameSketch(t, fmt.Sprintf("m=%d n=%d d=%d nnz=%d strided=%v width %d",
					sh.m, sh.n, sh.d, sh.nnz, strided, w), sa, ref)
			}
		}
	}
}

// TestApplySparseDeterministicAcrossWidths is the CQRRPT reproducibility
// contract: the sketch must be bit-identical for every engine width,
// because the downstream Geqp3 pivot selection diverges on any single-bit
// difference.
func TestApplySparseDeterministicAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, sh := range []struct{ m, n int }{{1000, 8}, {8192, 32}, {50000, 16}} {
		a := randDense(rng, sh.m, sh.n)
		d := 2 * sh.n
		var ref *mat.Dense
		for _, w := range []int{1, 2, 8} {
			e := parallel.NewEngine(w)
			sa := mat.NewDense(d, sh.n)
			ApplySparse(e, sa, a, DefaultNNZ, 7)
			if ref == nil {
				ref = sa
				continue
			}
			for i := range sa.Data {
				if math.Float64bits(sa.Data[i]) != math.Float64bits(ref.Data[i]) {
					t.Fatalf("m=%d n=%d width %d: sketch differs from width 1 at flat index %d",
						sh.m, sh.n, w, i)
				}
			}
		}
	}
}

func TestApplySparseSeedChangesSketch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randDense(rng, 500, 8)
	s1 := mat.NewDense(16, 8)
	s2 := mat.NewDense(16, 8)
	ApplySparse(parallel.Default, s1, a, 4, 1)
	ApplySparse(parallel.Default, s2, a, 4, 2)
	same := true
	for i := range s1.Data {
		if s1.Data[i] != s2.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical sketches")
	}
}

// TestApplySparseNormPreservation checks the isometry-in-expectation
// property E‖S·x‖² = ‖x‖² that makes the sparse-sign embedding a valid
// preconditioner source: over the whole matrix the Frobenius norm must be
// preserved within the embedding's distortion.
func TestApplySparseNormPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randDense(rng, 20000, 16)
	sa := mat.NewDense(64, 16)
	ApplySparse(parallel.Default, sa, a, DefaultNNZ, 9)
	ratio := sa.FrobeniusNorm() / a.FrobeniusNorm()
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("‖SA‖_F/‖A‖_F = %g, want ≈ 1 (sparse-sign embedding distorted)", ratio)
	}
}

// TestApplySparseSequentialAllocFree pins the pooled-workspace invariant:
// once the pools are warm, the sequential sketch pass performs zero heap
// allocations — the same property the fused BLAS pass guarantees.
func TestApplySparseSequentialAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := parallel.NewEngine(1)
	a := randDense(rng, 5000, 16)
	sa := mat.NewDense(32, 16)
	ApplySparse(e, sa, a, DefaultNNZ, 3) // warm the pools

	allocs := testing.AllocsPerRun(5, func() {
		ApplySparse(e, sa, a, DefaultNNZ, 3)
	})
	if allocs != 0 {
		t.Fatalf("sequential sketch pass allocates %v times per run, want 0", allocs)
	}
}

func TestApplySparsePanics(t *testing.T) {
	a := mat.NewDense(10, 4)
	for _, tc := range []struct {
		name string
		sa   *mat.Dense
		nnz  int
	}{
		{"wrong cols", mat.NewDense(8, 3), 2},
		{"nnz zero", mat.NewDense(8, 4), 0},
		{"nnz beyond d", mat.NewDense(8, 4), 9},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			ApplySparse(parallel.Default, tc.sa, a, tc.nnz, 0)
		}()
	}
}

func TestSourceBasics(t *testing.T) {
	s := NewSource(123)
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		v := s.Uint64()
		if seen[v] {
			t.Fatalf("Uint64 repeated value %d within 1000 draws", v)
		}
		seen[v] = true
	}
	for i := 0; i < 1000; i++ {
		if v := s.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
	// Same seed, same stream.
	a, b := NewSource(5), NewSource(5)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed sources diverged")
		}
	}
}

// TestTranspose64 checks the bit-matrix transpose against the
// definition: bit c of row r moves to bit r of row c.
func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var m [64]uint64
	for i := range m {
		m[i] = rng.Uint64()
	}
	want := m
	transpose64(&m)
	for r := range 64 {
		for c := range 64 {
			if m[c]>>r&1 != want[r]>>c&1 {
				t.Fatalf("bit (%d,%d) not transposed", r, c)
			}
		}
	}
}
