package core

import (
	"math/rand"
	"testing"

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
// FusedPivot runs the sweeps the fused kernel replaces — permute and
// TRSM, then Gram — one after another.
type unfusedSweeper struct{ *DenseSweeper }

func (s unfusedSweeper) FusedPivot(perm mat.Perm, rp, w *mat.Dense) error {
	if err := s.Pivot(0, perm, rp); err != nil {
		return err
	}
	return s.Gram(w)
}

// iteCholQRCPUnfused is iteCholQRCP over the unfused reference sweeper.
func iteCholQRCPUnfused(e *parallel.Engine, a *mat.Dense, eps float64) (*CPResult, error) {
	sw := unfusedSweeper{NewDenseSweeper(e, a.Clone())}
	res, err := FullRank(IteCholQRCPSweeps(e, a.Cols, sw, eps, a.Cols, nil))
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
		fused, err := IteCholQRCP(e, tc.a, tc.eps)
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
// stage time. The truncated run goes through the same driver loop, so it
// reconciles too.
func TestStageKernelFlopAttributionReconciles(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	a := testmat.Generate(rng, 700, 28, 28, 1e-9)
	cases := []struct {
		name  string
		fused bool // the run takes at least one fused pass
		run   func() error
	}{
		{"unfused", false, func() error { _, err := iteCholQRCPUnfused(nil, a, DefaultPivotTol); return err }},
		{"fused", true, func() error { _, err := IteCholQRCP(nil, a, DefaultPivotTol); return err }},
		{"truncated", true, func() error { _, err := IteCholQRCPPartial(nil, a, DefaultPivotTol, 20); return err }},
	}
	for _, tc := range cases {
		trace.Reset()
		trace.Enable()
		err := tc.run()
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
		// Every SYRK in this configuration is a Gram sweep, so the Gram
		// stage must mirror the syrk kernel exactly (the historical bug
		// attributed 2mn² to the stage and mn(n+1) to the kernel).
		if byName[trace.StageGram.String()] != byName[trace.KernelSyrk.String()] {
			t.Fatalf("%s: StageGram flops %d != KernelSyrk flops %d",
				tc.name, byName[trace.StageGram.String()], byName[trace.KernelSyrk.String()])
		}
		fusedStage := byName[trace.StageFused.String()]
		if fusedStage != byName[trace.KernelFusedTrsmGram.String()] || (fusedStage > 0) != tc.fused {
			t.Fatalf("%s: StageFused flops %d, KernelFusedTrsmGram flops %d, want a fused pass: %v",
				tc.name, fusedStage, byName[trace.KernelFusedTrsmGram.String()], tc.fused)
		}
		if kernelNs > stageNs {
			t.Fatalf("%s: kernel time %d ns exceeds enclosing stage time %d ns",
				tc.name, kernelNs, stageNs)
		}
	}
	trace.Reset()
}
