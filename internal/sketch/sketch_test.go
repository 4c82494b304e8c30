package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

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
// row in ascending order — for m below the slot threshold this is
// exactly the sequential path's summation order, so the comparison is
// bitwise.
func refSparse(sa, a *mat.Dense, nnz int, seed uint64) {
	d, n := sa.Rows, sa.Cols
	sa.Zero()
	scale := 1 / math.Sqrt(float64(nnz))
	targets := make([]int, nnz)
	for i := 0; i < a.Rows; i++ {
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
			dst := sa.Data[targets[t]*sa.Stride : targets[t]*sa.Stride+n]
			for j, v := range row {
				dst[j] = math.FMA(s, v, dst[j])
			}
		}
	}
}

// refGaussian replays the Gaussian kernel's stream consumption row by
// row in ascending order, one Box–Muller pair per two targets, each
// target updated by a plain fma loop as soon as its weight is drawn.
func refGaussian(sa, a *mat.Dense, seed uint64) {
	d, n := sa.Rows, sa.Cols
	sa.Zero()
	scale := 1 / math.Sqrt(float64(d))
	for i := 0; i < a.Rows; i++ {
		src := rowSource(seed, i)
		row := a.Data[i*a.Stride : i*a.Stride+n]
		for r := 0; r < d; r += 2 {
			u1 := float64(src.Uint64()>>11+1) * (1.0 / (1 << 53))
			u2 := src.Float64()
			rad := math.Sqrt(-2 * math.Log(u1))
			sin, cos := math.Sincos(2 * math.Pi * u2)
			g0 := scale * rad * cos
			dst := sa.Data[r*sa.Stride : r*sa.Stride+n]
			for j, v := range row {
				dst[j] = math.FMA(g0, v, dst[j])
			}
			if r+1 < d {
				g1 := scale * rad * sin
				dst = sa.Data[(r+1)*sa.Stride : (r+1)*sa.Stride+n]
				for j, v := range row {
					dst[j] = math.FMA(g1, v, dst[j])
				}
			}
		}
	}
}

// sketchShapes are below the two-slot threshold (m < 2·sketchMinSlotRows),
// where the replayed references take the kernels' summation order. They
// cover widths on both sides of the 4- and 16-wide vector loops, d past
// the 64-bit duplicate mask and the Gaussian chunk, odd d, and nnz = d.
var sketchShapes = []struct{ m, n, d, nnz int }{
	{1, 1, 2, 1}, {7, 3, 6, 2}, {100, 8, 16, 4}, {1999, 24, 48, 8},
	{300, 1, 8, 8}, {300, 4, 7, 7}, {300, 5, 64, 64}, {300, 31, 62, 8},
	{300, 32, 64, 8}, {300, 33, 130, 8}, {300, 64, 128, 8}, {4000, 64, 129, 3},
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
			sa := mat.NewDense(sh.d, sh.n)
			ApplySparse(nil, sa, a, sh.nnz, 42)
			ref := mat.NewDense(sh.d, sh.n)
			refSparse(ref, a, sh.nnz, 42)
			requireSameSketch(t, fmt.Sprintf("m=%d n=%d d=%d nnz=%d strided=%v",
				sh.m, sh.n, sh.d, sh.nnz, strided), sa, ref)
		}
	}
}

func TestApplyGaussianMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, sh := range sketchShapes {
		a := stridedDense(rng, min(sh.m, 500), sh.n)
		sa := mat.NewDense(sh.d, sh.n)
		ApplyGaussian(nil, sa, a, 43)
		ref := mat.NewDense(sh.d, sh.n)
		refGaussian(ref, a, 43)
		requireSameSketch(t, fmt.Sprintf("m=%d n=%d d=%d", a.Rows, sh.n, sh.d), sa, ref)
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

func TestApplyGaussianDeterministicAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randDense(rng, 20000, 12)
	d := 24
	var ref *mat.Dense
	for _, w := range []int{1, 2, 8} {
		e := parallel.NewEngine(w)
		sa := mat.NewDense(d, 12)
		ApplyGaussian(e, sa, a, 11)
		if ref == nil {
			ref = sa
			continue
		}
		for i := range sa.Data {
			if math.Float64bits(sa.Data[i]) != math.Float64bits(ref.Data[i]) {
				t.Fatalf("width %d: Gaussian sketch differs from width 1 at flat index %d", w, i)
			}
		}
	}
}

func TestApplySparseSeedChangesSketch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randDense(rng, 500, 8)
	s1 := mat.NewDense(16, 8)
	s2 := mat.NewDense(16, 8)
	ApplySparse(nil, s1, a, 4, 1)
	ApplySparse(nil, s2, a, 4, 2)
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
	ApplySparse(nil, sa, a, DefaultNNZ, 9)
	ratio := sa.FrobeniusNorm() / a.FrobeniusNorm()
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("‖SA‖_F/‖A‖_F = %g, want ≈ 1 (sparse-sign embedding distorted)", ratio)
	}
}

func TestApplyGaussianNormPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randDense(rng, 5000, 16)
	sa := mat.NewDense(64, 16)
	ApplyGaussian(nil, sa, a, 13)
	ratio := sa.FrobeniusNorm() / a.FrobeniusNorm()
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("‖GA‖_F/‖A‖_F = %g, want ≈ 1 (Gaussian embedding distorted)", ratio)
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
			ApplySparse(nil, tc.sa, a, tc.nnz, 0)
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
		if f := s.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", f)
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
