package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	tsqrcp "repro"
	"repro/mat"
	"repro/service"
)

func smallFactorWorkload(t *testing.T) *factorWorkload {
	t.Helper()
	f, err := newFactorWorkload(context.Background(), generate(structureSeed, 1, 512, 8, 6, 1e-12), tsqrcp.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func smallServedWorkload(t *testing.T, cfg service.Config) *servedWorkload {
	t.Helper()
	pool := make([]*mat.Dense, 4)
	for i := range pool {
		pool[i] = generate(structureSeed, int64(i), 256, 8, 6, 1e-12)
	}
	s, err := newServedWorkload(context.Background(), pool, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.cfg = cfg
	return s
}

// tampered returns a copy of f whose R differs from ref in one bit.
func tampered(f *tsqrcp.Factorization) *tsqrcp.Factorization {
	g := *f
	g.R = f.R.Clone()
	g.R.Data[0] = -g.R.Data[0]
	return &g
}

func TestWrongOutputCountsAsFailure(t *testing.T) {
	f := smallFactorWorkload(t)
	if err := f.setUp(); err != nil {
		t.Fatalf("set-up against the true reference: %v", err)
	}
	f.ref = tampered(f.ref)
	w := newWindow(4, 4)
	f.run(w)
	if w.failed.Load() != 4 {
		t.Fatalf("%d of 4 ops against a wrong reference failed, want all", w.failed.Load())
	}

	s := smallServedWorkload(t, service.Config{})
	if err := s.setUp(); err != nil {
		t.Fatal(err)
	}
	defer s.tearDown()
	q := *s.refs[1]
	q.Q = q.Q.Clone()
	q.Q.Data[5] += 1
	s.refs[1] = &q
	w = newWindow(16, 16)
	s.run(w)
	// Pool matrix 1 is served every fourth job; only its Q differs.
	if got := w.failed.Load(); got != 4 {
		t.Fatalf("%d of 16 served jobs failed, want the 4 whose Q differs", got)
	}
}

func TestRejectedJobsCountAsFailures(t *testing.T) {
	s := smallServedWorkload(t, service.Config{MaxPending: 1})
	if err := s.start(); err != nil {
		t.Fatal(err)
	}
	defer s.tearDown()
	w := newWindow(64, 64)
	s.run(w)
	if failed := w.failed.Load(); failed == 0 || failed == w.done.Load() {
		t.Fatalf("%d of %d jobs failed with 8 outstanding and MaxPending 1; want some rejected, some served",
			failed, w.done.Load())
	}
}

// failEvery fails every k-th op of the wrapped workload. Each op
// allocates, as the program's ops do, so that alloc_mib_per_op is
// positive.
type failEvery struct {
	workload
	k int
}

var opSink []byte

func (f failEvery) run(w *window) {
	for i := 1; w.next(); i++ {
		opSink = make([]byte, 1<<10)
		w.add(time.Millisecond, i%f.k != 0)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the result lines must match.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestEndToEndReportsBenchmarkMetrics(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for i, w := range bj.Workloads {
		if i >= len(workloadNames) || workloadNames[i] != w.Name {
			t.Errorf("BENCHMARK.json workload %d is %q, want %v in order", i, w.Name, workloadNames)
		}
	}
	out, err := runEndToEnd(failEvery{smallFactorWorkload(t), 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Attempted != minTimedOps || out.Failed != minTimedOps/4 {
		t.Errorf("correct %v attempted %d failed %d, want false %d %d",
			out.Correct, out.Attempted, out.Failed, minTimedOps, minTimedOps/4)
	}
	if got := out.Metrics["success_ratio"].Value; got != 0.75 {
		t.Errorf("success_ratio = %g with every fourth op failed, want 0.75", got)
	}
	if len(out.Metrics) != len(bj.EndToEnd) {
		t.Errorf("result has %d metrics, BENCHMARK.json lists %d", len(out.Metrics), len(bj.EndToEnd))
	}
	for _, m := range bj.EndToEnd {
		got, ok := out.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || !(got.Value > 0) {
			t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", m.Name, got, m.Unit)
		}
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run reports %d", len(bj.PerLayer), len(layerMetrics))
	}
	for i, m := range bj.PerLayer {
		if lm := layerMetrics[i]; lm.name != m.Name || lm.unit != m.Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], traced run %s [%s]", i, m.Name, m.Unit, lm.name, lm.unit)
		}
	}

	out, err := runTraced(smallFactorWorkload(t), 0, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 || len(out.Metrics) != len(layerMetrics) {
		t.Fatalf("traced run: correct %v failed %d, %d metrics", out.Correct, out.Failed, len(out.Metrics))
	}
	for _, name := range []string{"stage.total_ms", "core.iterations", "ooc.sweeps_per_op", "ooc.panels_per_op",
		"stage.oocread_ms", "blas.gram_gflops", "parallel.speedup_vs_1", "ooc.slowdown_vs_incore"} {
		if !(out.Metrics[name].Value > 0) {
			t.Errorf("%s = %g on an Ite-CholQR-CP workload, want > 0", name, out.Metrics[name].Value)
		}
	}
}
