package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/mat"
	"repro/testmat"
)

func permEqual(a, b mat.Perm) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// unfusedSweeper is the reference the fused pass is checked against: its
// FusedPivot runs the sweeps the fused kernel replaces — permute (none
// for a nil perm), TRSM, then Gram — one after another, each a direct
// kernel call.
type unfusedSweeper struct{ *DenseSweeper }

func (s unfusedSweeper) FusedPivot(perm mat.Perm, rp, w *mat.Dense) error {
	a := s.a
	if perm != nil {
		mat.PermuteColsInPlaceEngine(s.e, a, perm)
	}
	blas.TrsmRightUpperNoTrans(s.e, a, rp)
	return s.Gram(w)
}

// iteCholQRCPUnfused is IteCholQRCP over the unfused reference sweeper.
func iteCholQRCPUnfused(e *parallel.Engine, a *mat.Dense, eps float64) (*CPResult, error) {
	sw := unfusedSweeper{NewDenseSweeper(e, a.Clone())}
	res, err := IteCholQRCPSweeps(e, a.Cols, sw, eps, a.Cols)
	if err != nil {
		return nil, err
	}
	res.Q = sw.Q(res.Rank)
	return res, nil
}

// TestIteCholQRCPFusedMatchesUnfused is the end-to-end fused/unfused
// equivalence contract: the fused pass emits exactly the Gram of the
// updated matrix, so both sequences give the same pivots, iterations and
// Q/R bits, on random geometric-spectrum matrices and on a graded
// Kahan-type matrix.
func TestIteCholQRCPFusedMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	cases := []struct {
		name string
		a    *mat.Dense
		eps  float64
	}{
		{"wellcond", testmat.GenerateWellConditioned(rng, 600, 24, 1e3), DefaultPivotTol},
		{"k1e6", testmat.GenerateWellConditioned(rng, 1500, 32, 1e6), DefaultPivotTol},
		{"k1e8", testmat.GenerateWellConditioned(rng, 900, 20, 1e8), DefaultPivotTol},
		{"kahan", testmat.KahanTall(rng, 1200, 32, 1.1, 1e-10), 0.3},
		{"geometric", testmat.Generate(rng, 1500, 32, 32, 1e-12), DefaultPivotTol},
		{"wide", testmat.Generate(rng, 6000, 130, 100, 1e-12), DefaultPivotTol},
	}
	for _, tc := range cases {
		// A multi-worker engine exercises the fused kernel's parallel
		// reduction path even on a single-core test machine.
		e := parallel.NewEngine(4)
		fused, err := IteCholQRCP(e, tc.a, tc.eps, tc.a.Cols)
		if err != nil {
			t.Fatalf("%s fused: %v", tc.name, err)
		}
		unfused, err := iteCholQRCPUnfused(e, tc.a, tc.eps)
		if err != nil {
			t.Fatalf("%s unfused: %v", tc.name, err)
		}
		if fused.Iterations != unfused.Iterations {
			t.Fatalf("%s: iterations %d vs %d", tc.name, fused.Iterations, unfused.Iterations)
		}
		requireSameCP(t, tc.name+" fused vs unfused", fused, unfused)
		checkCP(t, tc.name+" fused", tc.a, fused, 1e-13, 1e-12)
	}
}

// TestStageKernelFlopAttributionReconciles pins the trace contract the
// breakdown report relies on: stage-level flop attribution mirrors the
// kernels each stage wraps, so for n below the blocked-Potrf panel width
// the stage and kernel flop totals agree exactly, and since every kernel
// span nests inside a stage span, summed kernel time never exceeds summed
// stage time. Every pivoting pass is fused: one Gram sweep, then I fused
// passes whose last emits the k×k reorthogonalization Gram, so the
// fused flops are I·mn² + (I−1)·mn(n+1) + mk(k+1). The truncated run
// goes through the same driver loop, so it reconciles too.
func TestStageKernelFlopAttributionReconciles(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	a := testmat.Generate(rng, 700, 28, 28, 1e-9)
	m, n := int64(a.Rows), int64(a.Cols)
	cases := []struct {
		name string
		run  func() (*CPResult, error)
	}{
		{"full", func() (*CPResult, error) { return IteCholQRCP(parallel.Default, a, DefaultPivotTol, a.Cols) }},
		{"truncated", func() (*CPResult, error) { return IteCholQRCP(parallel.Default, a, DefaultPivotTol, 20) }},
	}
	for _, tc := range cases {
		trace.Reset()
		trace.Enable()
		res, err := tc.run()
		trace.Disable()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rep := trace.Snapshot()
		var stageFlops, kernelFlops, stageNs, kernelNs int64
		byName := map[string]int64{}
		for _, row := range rep.Stages {
			byName[row.Stage] = row.Flops
			if row.Stage == trace.StageTotal.String() {
				continue
			}
			if row.Kernel {
				kernelFlops += row.Flops
				kernelNs += row.TotalNs
			} else {
				stageFlops += row.Flops
				stageNs += row.TotalNs
			}
		}
		if stageFlops != kernelFlops {
			t.Fatalf("%s: stage flops %d != kernel flops %d", tc.name, stageFlops, kernelFlops)
		}
		// The one Gram sweep is the only SYRK, so the Gram stage must
		// mirror the syrk kernel exactly (the historical bug attributed
		// 2mn² to the stage and mn(n+1) to the kernel).
		if got := byName[trace.StageGram.String()]; got != m*n*(n+1) || got != byName[trace.KernelSyrk.String()] {
			t.Fatalf("%s: StageGram flops %d, KernelSyrk flops %d, want one Gram: %d",
				tc.name, got, byName[trace.KernelSyrk.String()], m*n*(n+1))
		}
		it, k := int64(res.Iterations), int64(res.Rank)
		want := it*m*n*n + (it-1)*m*n*(n+1) + m*k*(k+1)
		fusedStage := byName[trace.StageFused.String()]
		if fusedStage != want || fusedStage != byName[trace.KernelFusedTrsmGram.String()] {
			t.Fatalf("%s: StageFused flops %d, KernelFusedTrsmGram flops %d, want %d (%d iterations, rank %d)",
				tc.name, fusedStage, byName[trace.KernelFusedTrsmGram.String()], want, it, k)
		}
		if kernelNs > stageNs {
			t.Fatalf("%s: kernel time %d ns exceeds enclosing stage time %d ns",
				tc.name, kernelNs, stageNs)
		}
	}
	trace.Reset()
}

// TestCholQR2FusedMatchesUnfused extends the fused/unfused contract to
// the CholeskyQR2 step: run over the unfused reference sweeper, whose
// first pass's TRSM and second pass's Gram are separate sweeps, it gives
// CholQR2's R and Q bits.
func TestCholQR2FusedMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	e := parallel.NewEngine(4)
	for _, cond := range []float64{1e2, 1e5, 1e7} {
		a := testmat.GenerateWellConditioned(rng, 1500, 32, cond)
		fused, err := CholQR2(e, a)
		if err != nil {
			t.Fatalf("κ=%g fused: %v", cond, err)
		}
		q := a.Clone()
		r, err := cholQR2(e, unfusedSweeper{NewDenseSweeper(e, q)}, a.Cols)
		if err != nil {
			t.Fatalf("κ=%g unfused: %v", cond, err)
		}
		requireSameCP(t, fmt.Sprintf("κ=%g fused vs unfused", cond),
			&CPResult{Q: fused.Q, R: fused.R}, &CPResult{Q: q, R: r})
	}
}

// TestCholQRFamilyStageKernelFlopAttributionReconciles extends the trace
// contract to the unpivoted CholQR family, whose every pass runs on the
// sweeper steps: each stage's flops equal those of the kernel it wraps
// (n is below the blocked-Potrf panel width), and summed kernel time
// never exceeds summed stage time. A run is one Gram sweep, p fused
// passes and one TRSM, with p+1 Cholesky factors folded into R by p+1
// TRMMs (none for CholQR): p = 1 for CholeskyQR2 and p = 2 for a
// single-shift ShiftedCholQR3.
func TestCholQRFamilyStageKernelFlopAttributionReconciles(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	well := testmat.GenerateWellConditioned(rng, 700, 28, 1e3)
	ill := testmat.GenerateWellConditioned(rng, 700, 28, 1e8)
	m, n := int64(700), int64(28)
	cases := []struct {
		name  string
		run   func() (*QR, error)
		fused int64
		trmms int64
	}{
		{"CholQR", func() (*QR, error) { return CholQR(parallel.Default, well) }, 0, 0},
		{"CholQR2", func() (*QR, error) { return CholQR2(parallel.Default, well) }, 1, 1},
		{"ShiftedCholQR3", func() (*QR, error) { return ShiftedCholQR3(parallel.Default, ill) }, 2, 3},
	}
	for _, tc := range cases {
		trace.Reset()
		trace.Enable()
		_, err := tc.run()
		trace.Disable()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rep := trace.Snapshot()
		var stageFlops, kernelFlops, stageNs, kernelNs int64
		byName := map[string]int64{}
		for _, row := range rep.Stages {
			byName[row.Stage] = row.Flops
			if row.Kernel {
				kernelFlops += row.Flops
				kernelNs += row.TotalNs
			} else if row.Stage != trace.StageTotal.String() {
				stageFlops += row.Flops
				stageNs += row.TotalNs
			}
		}
		if stageFlops != kernelFlops {
			t.Fatalf("%s: stage flops %d != kernel flops %d", tc.name, stageFlops, kernelFlops)
		}
		for _, sk := range []struct {
			stage, kernel trace.Stage
			want          int64
		}{
			{trace.StageGram, trace.KernelSyrk, m * n * (n + 1)},
			{trace.StageFused, trace.KernelFusedTrsmGram, tc.fused * (m*n*n + m*n*(n+1))},
			{trace.StageTrsm, trace.KernelTrsm, m * n * n},
			{trace.StageCholCP, trace.KernelPotrf, (tc.fused + 1) * (n * n * n / 3)},
			{trace.StageTrmm, trace.KernelTrmm, tc.trmms * blas.TrmmFlops(int(n), int(n))},
		} {
			got, kern := byName[sk.stage.String()], byName[sk.kernel.String()]
			if got != sk.want || got != kern {
				t.Fatalf("%s: %s flops %d, %s flops %d, want %d",
					tc.name, sk.stage, got, sk.kernel, kern, sk.want)
			}
		}
		if kernelNs > stageNs {
			t.Fatalf("%s: kernel time %d ns exceeds enclosing stage time %d ns",
				tc.name, kernelNs, stageNs)
		}
	}
	trace.Reset()
}
