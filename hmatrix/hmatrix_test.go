package hmatrix

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/mat"
)

func logKernel(x, y float64) float64 {
	d := math.Abs(x - y)
	if d < 1e-12 {
		d = 1e-12
	}
	return -math.Log(d)
}

func invKernel(x, y float64) float64 {
	return 1 / (math.Abs(x-y) + 1e-3)
}

func sortedPoints(rng *rand.Rand, n int) []float64 {
	pts := make([]float64, n)
	for i := range pts {
		pts[i] = rng.Float64()
	}
	sort.Float64s(pts)
	return pts
}

func denseKernel(xs, ys []float64, k Kernel) *mat.Dense {
	d := mat.NewDense(len(xs), len(ys))
	for i, x := range xs {
		for j, y := range ys {
			d.Set(i, j, k(x, y))
		}
	}
	return d
}

func TestHMatrixMatVecAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	n := 400
	xs := sortedPoints(rng, n)
	for _, tol := range []float64{1e-4, 1e-8} {
		h, err := Build(xs, xs, logKernel, &Options{Tol: tol})
		if err != nil {
			t.Fatal(err)
		}
		dense := denseKernel(xs, xs, logKernel)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]float64, n)
		h.MatVec(got, x)
		want := make([]float64, n)
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < n; j++ {
				s += dense.At(i, j) * x[j]
			}
			want[i] = s
		}
		num, den := 0.0, 0.0
		for i := range got {
			d := got[i] - want[i]
			num += d * d
			den += want[i] * want[i]
		}
		rel := math.Sqrt(num / den)
		if rel > 100*tol {
			t.Fatalf("tol=%g: matvec error %g", tol, rel)
		}
	}
}

// TestHMatrixRepeatedPoints: every point twice makes each admissible
// block exactly rank deficient (equal row pairs), which QRCP factors at
// its rank; the compression must succeed and stay accurate.
func TestHMatrixRepeatedPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(276))
	pts := sortedPoints(rng, 200)
	xs := make([]float64, 0, 2*len(pts))
	for _, p := range pts {
		xs = append(xs, p, p)
	}
	const tol = 1e-8
	h, err := Build(xs, xs, invKernel, &Options{Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	if h.Stats().LowRankBlocks == 0 {
		t.Fatal("no admissible blocks compressed")
	}
	dense := denseKernel(xs, xs, invKernel)
	x := make([]float64, len(xs))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := make([]float64, len(xs))
	h.MatVec(got, x)
	num, den := 0.0, 0.0
	for i := range got {
		want := 0.0
		for j := range x {
			want += dense.At(i, j) * x[j]
		}
		num += (got[i] - want) * (got[i] - want)
		den += want * want
	}
	if rel := math.Sqrt(num / den); rel > 100*tol {
		t.Fatalf("matvec error %g", rel)
	}
}

// TestHMatrixSortedMatVecNoPermutation: the clusters are index ranges of
// the sorted points, so MatVec allocates nothing beyond one rank-sized
// temporary per low-rank block — no gathered input, no scattered output.
func TestHMatrixSortedMatVecNoPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(277))
	xs := sortedPoints(rng, 1000)
	h, err := Build(xs, xs, logKernel, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, dst := make([]float64, len(xs)), make([]float64, len(xs))
	allocs := testing.AllocsPerRun(5, func() { h.MatVec(dst, x) })
	if lr := h.Stats().LowRankBlocks; allocs > float64(lr) {
		t.Fatalf("MatVec made %v allocations, want ≤ %d (one per low-rank block)", allocs, lr)
	}
}

func TestHMatrixCompresses(t *testing.T) {
	rng := rand.New(rand.NewSource(272))
	n := 600
	xs := sortedPoints(rng, n)
	h, err := Build(xs, xs, logKernel, &Options{Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.LowRankBlocks == 0 {
		t.Fatal("no admissible blocks compressed")
	}
	if st.DenseBlocks == 0 {
		t.Fatal("no dense near-field blocks")
	}
	if ratio := st.CompressionRatio(); ratio > 0.5 {
		t.Fatalf("compression ratio %g, want < 0.5 for n=%d", ratio, n)
	}
	if st.MaxRank >= 64 {
		t.Fatalf("max rank %d suspiciously high for a smooth kernel", st.MaxRank)
	}
}

func TestHMatrixErrorTracksTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(273))
	n := 300
	xs := sortedPoints(rng, n)
	dense := denseKernel(xs, xs, invKernel)
	var prev float64 = math.Inf(1)
	for _, tol := range []float64{1e-2, 1e-5, 1e-9} {
		h, err := Build(xs, xs, invKernel, &Options{Tol: tol})
		if err != nil {
			t.Fatal(err)
		}
		diff := denseOf(h)
		for i := range diff.Data {
			diff.Data[i] -= dense.Data[i]
		}
		rel := diff.FrobeniusNorm() / dense.FrobeniusNorm()
		if rel > prev*1.01 {
			t.Fatalf("error not decreasing with tolerance: %g after %g", rel, prev)
		}
		if rel > 1000*tol {
			t.Fatalf("tol=%g: reconstruction error %g", tol, rel)
		}
		prev = rel
	}
}

func TestHMatrixRectangular(t *testing.T) {
	rng := rand.New(rand.NewSource(274))
	xs := sortedPoints(rng, 250)
	ys := sortedPoints(rng, 120)
	h, err := Build(xs, ys, invKernel, nil)
	if err != nil {
		t.Fatal(err)
	}
	dense := denseKernel(xs, ys, invKernel)
	got := denseOf(h)
	diff := got.Clone()
	for i := range diff.Data {
		diff.Data[i] -= dense.Data[i]
	}
	if rel := diff.FrobeniusNorm() / dense.FrobeniusNorm(); rel > 1e-5 {
		t.Fatalf("rectangular reconstruction error %g", rel)
	}
}

func TestHMatrixSmallFallsBackToDense(t *testing.T) {
	rng := rand.New(rand.NewSource(275))
	xs := sortedPoints(rng, 10) // below leaf size: single dense block
	h, err := Build(xs, xs, invKernel, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.DenseBlocks != 1 || st.LowRankBlocks != 0 {
		t.Fatalf("tiny problem should be one dense block: %+v", st)
	}
	if st.CompressionRatio() != 1 {
		t.Fatalf("ratio %g, want 1", st.CompressionRatio())
	}
}

func TestHMatrixPanics(t *testing.T) {
	mustPanic(t, func() { Build(nil, []float64{1}, invKernel, nil) })             //nolint:errcheck
	mustPanic(t, func() { Build([]float64{2, 1}, []float64{1}, invKernel, nil) }) //nolint:errcheck
	h, err := Build([]float64{0, 1}, []float64{0, 1}, invKernel, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, func() { h.MatVec(make([]float64, 1), make([]float64, 2)) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

// denseOf materializes the compressed matrix column by column through
// MatVec.
func denseOf(h *HMatrix) *mat.Dense {
	out := mat.NewDense(h.rows, h.cols)
	x := make([]float64, h.cols)
	col := make([]float64, h.rows)
	for j := 0; j < h.cols; j++ {
		x[j] = 1
		h.MatVec(col, x)
		x[j] = 0
		for i := 0; i < h.rows; i++ {
			out.Set(i, j, col[i])
		}
	}
	return out
}
