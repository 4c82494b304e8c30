package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	tsqrcp "repro"
	"repro/internal/blas"
	"repro/internal/cholcp"
	"repro/internal/lapack"
	"repro/internal/parallel"
	"repro/internal/sketch"
	"repro/internal/trace"
	"repro/mat"
	"repro/service"
)

// layerMetrics lists every per-layer metric the traced run reports, with
// its unit, in BENCHMARK.json order. A metric of a layer the workload
// does not run (the sketch on ite-tall, the service on cqrrpt-vtall) reads 0,
// except the directly timed kernel probes, which run on every workload's
// own matrix.
var layerMetrics = []struct{ name, unit string }{
	{"stage.gram_ms", "ms"}, {"stage.fused_ms", "ms"}, {"stage.trsm_ms", "ms"},
	{"stage.cholcp_ms", "ms"}, {"stage.swap_ms", "ms"}, {"stage.trmm_ms", "ms"},
	{"stage.sketch_ms", "ms"}, {"stage.precond_ms", "ms"}, {"stage.oocread_ms", "ms"},
	{"stage.total_ms", "ms"},
	{"core.unattributed_share", "ratio"}, {"core.iterations", "count"},
	{"core.pivots_fixed", "count"}, {"core.eps_exits", "count"}, {"core.sketch_fallbacks", "count"},
	{"blas.gram_ms", "ms"}, {"blas.gram_gflops", "GFLOP/s"},
	{"blas.fused_ms", "ms"}, {"blas.fused_gbps", "GB/s"},
	{"blas.trsm_ms", "ms"}, {"blas.trsm_gflops", "GFLOP/s"},
	{"cholcp.pcholcp_ms", "ms"}, {"lapack.potrf_ms", "ms"},
	{"sketch.apply_ms", "ms"}, {"sketch.gbps", "GB/s"}, {"lapack.geqp3_ms", "ms"},
	{"parallel.region_us", "us"}, {"parallel.speedup_vs_1", "ratio"},
	{"parallel.inline_share", "ratio"}, {"parallel.worker_utilization", "ratio"},
	{"mat.workspace_miss_share", "ratio"}, {"mat.panel_read_gbps", "GB/s"},
	{"ooc.slowdown_vs_incore", "ratio"}, {"ooc.sweeps_per_op", "count"},
	{"ooc.panels_per_op", "count"}, {"ooc.prefetch_stall_share", "ratio"},
	{"batch.window_ms", "ms"}, {"service.overhead_ms_per_job", "ms"},
	{"service.flush_full_share", "ratio"}, {"service.jobs_per_batch", "count"},
	{"service.rejected", "count"}, {"service.wire_mib_per_job", "MiB"},
	{"trace.overhead_share", "ratio"},
}

// layerValues collects the per-layer values of one traced run.
type layerValues map[string]float64

func (v layerValues) output() map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		out[lm.name] = metric{v[lm.name], lm.unit}
	}
	return out
}

// runTraced re-runs the workload's ops in four quarters of the window,
// untraced–traced–traced–untraced, so a slow drift of the host weighs on
// both conditions alike, and reads the stage table and counters of the
// two traced quarters. It then times each layer's exported functions
// directly on the workload's own matrix. The two conditions' nominal p50
// (see calibrate.go) give trace.overhead_share; the probes report raw
// times.
func runTraced(wl workload, seconds float64, width int, scratch string) (output, error) {
	if err := wl.setUp(); err != nil {
		return output{}, fmt.Errorf("set-up: %w", err)
	}
	defer wl.tearDown()
	cal := newCalibrator()
	quarter := func() result {
		return measure(wl, cal, seconds/4, minTimedOps/4, latencyCapacity(seconds/4))
	}
	plain := quarter()

	var stats0 service.Stats
	sw, served := wl.(*servedWorkload)
	if served {
		stats0 = sw.srv.Stats()
	}
	trace.Reset()
	trace.Enable()
	traced := quarter().merge(quarter())
	rep := trace.Snapshot()
	trace.Disable()
	var stats1 service.Stats
	if served {
		stats1 = sw.srv.Stats()
	}
	plain = plain.merge(quarter())

	v := layerValues{}
	p50 := percentile(traced.lat, 50)
	plainP50 := percentile(plain.lat, 50)
	v["trace.overhead_share"] = p50/plainP50 - 1
	traceValues(v, rep, traced.ops)

	pe := parallel.NewEngine(width)
	var err error
	switch w := wl.(type) {
	case *factorWorkload:
		// QRCPFile is timed raw, so it is compared with the raw in-core p50.
		err = factorProbes(v, w, pe, percentile(plain.rawLat, 50), scratch)
	case *servedWorkload:
		if b := stats1.Batches - stats0.Batches; b > 0 {
			v["service.flush_full_share"] = float64(stats1.FlushFull-stats0.FlushFull) / float64(b)
			v["service.jobs_per_batch"] = float64(stats1.Completed-stats0.Completed) / float64(b)
		}
		v["service.rejected"] = float64(stats1.RejectedQueue - stats0.RejectedQueue + stats1.RejectedTenant - stats0.RejectedTenant)
		m, n := float64(smallRows), float64(smallCols)
		v["service.wire_mib_per_job"] = (16*m*n + 8*n*n + 4*n) / (1 << 20)
		err = servedProbes(v, w, pe, scratch)
	}
	if err != nil {
		return output{}, err
	}
	fmt.Fprintf(os.Stderr, "qrcpbench: traced %d ops (p50 %.4gms), untraced %d ops (p50 %.4gms), host steal share %.4f\n",
		traced.ops, p50, plain.ops, plainP50, traced.steal)
	return output{
		Correct:   plain.failed == 0 && traced.failed == 0,
		Attempted: plain.ops + traced.ops,
		Failed:    plain.failed + traced.failed,
		Metrics:   v.output(),
	}, nil
}

// traceValues derives the stage, core and workspace metrics from the
// traced quarters' stage table and counters, per op.
func traceValues(v layerValues, rep trace.Report, ops int) {
	perOp := func(stage string) float64 {
		st, _ := rep.Stage(stage)
		return float64(st.TotalNs) / 1e6 / float64(ops)
	}
	for name, stage := range map[string]string{
		"stage.gram_ms": "Gram", "stage.fused_ms": "Fused", "stage.trsm_ms": "TRSM",
		"stage.cholcp_ms": "CholCP", "stage.swap_ms": "Swap", "stage.trmm_ms": "Trmm",
		"stage.sketch_ms": "Sketch", "stage.precond_ms": "Precond",
		"stage.oocread_ms": "OOCRead", "stage.total_ms": "Total",
	} {
		v[name] = perOp(stage)
	}
	var rows float64
	for _, s := range trace.StageRows() {
		st, _ := rep.Stage(s.String())
		rows += float64(st.TotalNs)
	}
	if tot, _ := rep.Stage("Total"); tot.TotalNs > 0 {
		v["core.unattributed_share"] = 1 - rows/float64(tot.TotalNs)
	}
	c := rep.Counters
	for name, ctr := range map[string]string{
		"core.iterations": "iterations", "core.pivots_fixed": "pivots_fixed",
		"core.eps_exits": "eps_exits", "core.sketch_fallbacks": "sketch_fallbacks",
	} {
		v[name] = float64(c[ctr]) / float64(ops)
	}
	if gets := c["workspace_gets"]; gets > 0 {
		v["mat.workspace_miss_share"] = float64(c["workspace_misses"]) / float64(gets)
	}
}

// parallelTrace traces probeMinReps calls of op, which runs the
// workload's op on an engine of the given width, and reads the worker
// pool's counters. The timed ops run at engineWidth, where every region
// runs inline on the caller, so the pool is traced here instead.
func parallelTrace(v layerValues, width int, op func()) {
	trace.Reset()
	trace.Enable()
	for i := 0; i < probeMinReps; i++ {
		op()
	}
	rep := trace.Snapshot()
	trace.Disable()
	c := rep.Counters
	if chunks := c["worker_inline_chunks"] + c["worker_dispatches"]; chunks > 0 {
		v["parallel.inline_share"] = float64(c["worker_inline_chunks"]) / float64(chunks)
	}
	if rep.WallNs > 0 {
		var busy float64
		for _, w := range rep.Workers {
			busy += float64(w.BusyNs)
		}
		v["parallel.worker_utilization"] = busy / (float64(rep.WallNs) * float64(width))
	}
}

// probeBudget is the call time each directly timed probe accumulates
// before its median is taken (at least probeMinReps calls).
const (
	probeBudget  = 300 * time.Millisecond
	probeMinReps = 5
	probeMaxReps = 2001
)

// timeMS returns the median wall time in ms of call, re-running prep
// (untimed) before each call.
func timeMS(prep, call func()) float64 {
	var samples []float64
	var spent time.Duration
	for len(samples) < probeMinReps || (spent < probeBudget && len(samples) < probeMaxReps) {
		prep()
		t := time.Now()
		call()
		d := time.Since(t)
		spent += d
		samples = append(samples, float64(d)/1e6)
	}
	return median(samples)
}

func noPrep() {}

// kernelProbes times the layers' exported functions on a: the Gram, fused
// permute→TRSM→Gram and TRSM sweeps, P-Chol-CP and Cholesky on its n×n
// Gram, the sparse sketch and Geqp3 on the 2n×n sketch, an empty
// parallel region, and a panel read of its binary file. Flop and byte
// counts are computed from the shapes.
func kernelProbes(v layerValues, a *mat.Dense, pe *parallel.Engine, scratch string) error {
	m, n := a.Rows, a.Cols
	fm, fn := float64(m), float64(n)
	g := mat.NewDense(n, n)
	ms := timeMS(noPrep, func() { blas.Gram(pe, g, a) })
	v["blas.gram_ms"], v["blas.gram_gflops"] = ms, fm*fn*(fn+1)/(ms*1e6)

	// A well-conditioned triangular factor keeps the solves finite.
	rng := rand.New(rand.NewSource(1))
	r := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		r.Set(i, i, 1)
		for j := i + 1; j < n; j++ {
			r.Set(i, j, 0.01*rng.NormFloat64())
		}
	}
	perm := make(mat.Perm, n)
	for j := range perm {
		perm[j] = n - 1 - j
	}
	b := a.Clone()
	reset := func() { b.Copy(a) }
	ms = timeMS(reset, func() { blas.PermTrsmGramFused(pe, b, perm, r, g) })
	v["blas.fused_ms"], v["blas.fused_gbps"] = ms, 16*fm*fn/(ms*1e6)
	ms = timeMS(reset, func() { blas.TrsmRightUpperNoTrans(pe, b, r) })
	v["blas.trsm_ms"], v["blas.trsm_gflops"] = ms, fm*fn*fn/(ms*1e6)

	w0 := mat.NewDense(n, n)
	blas.Gram(pe, w0, a)
	v["cholcp.pcholcp_ms"] = timeMS(noPrep, func() { cholcp.PCholCP(pe, w0, tsqrcp.DefaultPivotTol) })
	// The σ-profile's Gram is numerically singular; a shift of n·u·‖W‖
	// makes it positive definite, as shifted Cholesky QR does.
	ws := w0.Clone()
	shift := fn * mat.Eps * w0.FrobeniusNorm()
	for i := 0; i < n; i++ {
		ws.Set(i, i, ws.At(i, i)+shift)
	}
	w := mat.NewDense(n, n)
	var potrfErr error
	v["lapack.potrf_ms"] = timeMS(func() { w.Copy(ws) }, func() { potrfErr = lapack.PotrfUpper(pe, w) })
	if potrfErr != nil {
		return fmt.Errorf("potrf probe: %w", potrfErr)
	}

	sa := mat.NewDense(2*n, n)
	ms = timeMS(noPrep, func() { sketch.ApplySparse(pe, sa, a, sketch.DefaultNNZ, cqrrptSeed) })
	v["sketch.apply_ms"], v["sketch.gbps"] = ms, 8*fm*fn/(ms*1e6)
	sk := mat.NewDense(2*n, n)
	tau := make([]float64, n)
	jpvt := make(mat.Perm, n)
	v["lapack.geqp3_ms"] = timeMS(func() { sk.Copy(sa) }, func() { lapack.Geqp3(pe, sk, tau, jpvt) })

	const regions = 1000
	empty := func(lo, hi int) {}
	v["parallel.region_us"] = 1e3 / regions * timeMS(noPrep, func() {
		for i := 0; i < regions; i++ {
			pe.For(pe.Workers(), 1, empty)
		}
	})

	path := filepath.Join(scratch, "probe.tsqrmat")
	if err := writeSynced(a, path); err != nil {
		return err
	}
	defer os.Remove(path)
	var readErr error
	panel := mat.NewDense(min(m, oocPanelRows), n)
	ms = timeMS(noPrep, func() {
		f, err := mat.OpenBinary(path)
		if err != nil {
			readErr = err
			return
		}
		defer f.Close()
		for lo := 0; lo < m; lo += panel.Rows {
			hi := min(m, lo+panel.Rows)
			if _, err := f.ReadRows(panel.RowSlice(0, hi-lo), lo, hi); err != nil {
				readErr = err
			}
		}
	})
	if readErr != nil {
		return fmt.Errorf("panel read probe: %w", readErr)
	}
	v["mat.panel_read_gbps"] = 8 * fm * fn / (ms * 1e6)
	return nil
}

// factorProbes adds the kernel probes and the engine-width scaling of
// one op on a single-factorization workload, and on an Ite-CholQR-CP one
// the out-of-core probes; p50 is the run's raw untraced in-core p50.
func factorProbes(v layerValues, f *factorWorkload, pe *parallel.Engine, p50 float64, scratch string) error {
	if err := kernelProbes(v, f.a, pe, scratch); err != nil {
		return err
	}
	var opErr error
	op := func(eng *tsqrcp.Engine) func() {
		return func() {
			if _, err := eng.QRCP(f.a, &f.opts); err != nil {
				opErr = err
			}
		}
	}
	one := timeMS(noPrep, op(tsqrcp.NewEngine(1)))
	wide := op(tsqrcp.NewEngine(pe.Workers()))
	v["parallel.speedup_vs_1"] = one / timeMS(noPrep, wide)
	parallelTrace(v, pe.Workers(), wide)
	if opErr != nil || f.opts.Strategy != tsqrcp.StrategyIteCholQRCP {
		return opErr
	}
	return oocProbes(v, f, p50, scratch)
}

// oocProbes factors the workload's matrix out of core with
// Engine.QRCPFile from a TSQRMAT1 copy, in panels of oocPanelRows: timed
// against the run's in-core p50, then traced for the out-of-core stage
// and counters. Every result must equal the in-core reference. It runs
// after the workload's own trace readings, which its trace.Reset clears.
func oocProbes(v layerValues, f *factorWorkload, incoreP50 float64, scratch string) error {
	path := filepath.Join(scratch, "ooc.tsqrmat")
	if err := writeSynced(f.a, path); err != nil {
		return err
	}
	defer os.Remove(path)
	eng := tsqrcp.NewEngine(f.width)
	opts := &tsqrcp.FileOptions{Options: f.opts, PanelRows: oocPanelRows, ScratchDir: scratch}
	var opErr error
	op := func() {
		got, err := eng.QRCPFile(path, opts)
		if err == nil && !sameFactor(got, f.ref, false) {
			err = fmt.Errorf("out-of-core factorization disagrees with the in-core reference")
		}
		if err != nil {
			opErr = err
		}
	}
	v["ooc.slowdown_vs_incore"] = timeMS(noPrep, op) / incoreP50

	const ops = 5
	trace.Reset()
	trace.Enable()
	for i := 0; i < ops; i++ {
		op()
	}
	rep := trace.Snapshot()
	trace.Disable()
	m, n := float64(f.a.Rows), float64(f.a.Cols)
	v["ooc.sweeps_per_op"] = float64(rep.Counters["ooc_bytes_read"]) / (8 * m * n) / ops
	v["ooc.panels_per_op"] = float64(rep.Counters["ooc_panels_read"]) / ops
	read, _ := rep.Stage("OOCRead")
	v["stage.oocread_ms"] = float64(read.TotalNs) / 1e6 / ops
	if tot, _ := rep.Stage("Total"); tot.TotalNs > 0 {
		v["ooc.prefetch_stall_share"] = float64(rep.Counters["ooc_prefetch_stall_ns"]) / float64(tot.TotalNs)
	}
	return opErr
}

// servedProbes adds the kernel probes on the first pool matrix, the
// in-process Engine.QRCPBatch window on as many pool matrices as the
// loop keeps in flight, and the same jobs served as one wave, whose
// difference per job is the service overhead.
func servedProbes(v layerValues, s *servedWorkload, pe *parallel.Engine, scratch string) error {
	if err := kernelProbes(v, s.pool[0], pe, scratch); err != nil {
		return err
	}
	jobs := s.pool[:s.outstanding]
	var opErr error
	batch := func(eng *tsqrcp.Engine) func() {
		return func() {
			res, err := eng.QRCPBatch(s.ctx, jobs, nil)
			if err != nil {
				opErr = err
				return
			}
			for i, r := range res {
				if r.Err != nil || !sameFactor(r.F, s.refs[i], true) {
					opErr = fmt.Errorf("batch problem %d disagrees with its reference", i)
				}
			}
		}
	}
	full := timeMS(noPrep, batch(s.cfg.Engine))
	v["batch.window_ms"] = full
	wide := batch(tsqrcp.NewEngine(pe.Workers()))
	v["parallel.speedup_vs_1"] = timeMS(noPrep, batch(tsqrcp.NewEngine(1))) / timeMS(noPrep, wide)
	parallelTrace(v, pe.Workers(), wide)
	wave := timeMS(noPrep, func() {
		errs := make(chan error, len(jobs))
		for i, a := range jobs {
			go func() {
				got, err := s.conns[i%len(s.conns)].Factor(s.ctx, service.Request{A: a})
				if err == nil && !sameFactor(got, s.refs[i], true) {
					err = fmt.Errorf("served job %d disagrees with its reference", i)
				}
				errs <- err
			}()
		}
		for range jobs {
			if err := <-errs; err != nil {
				opErr = err
			}
		}
	})
	v["service.overhead_ms_per_job"] = (wave - full) / float64(len(jobs))
	return opErr
}
