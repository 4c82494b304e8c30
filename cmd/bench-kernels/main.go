// Command bench-kernels measures the Level-3 kernels on the Ite-CholQR-CP
// hot path (Gram, TRSM, GEMM, sparse-sign sketch) and its n×n tail
// (TRMM, the left TRSM, P-Chol-CP), read against a single-core FMA peak
// probe, and the two GEMMs of the Householder QRCP
// baseline, plus the end-to-end factorizations —
// the iterated baseline, the randomized CQRRPT A/B pair
// with its accuracy parity rows, batch throughput, the out-of-core path
// and the QRCP service on a loopback server — and writes the
// results as JSON for regression tracking (`make bench-json`). The JSON
// layout is documented in bench/SCHEMA.md and gated in CI by
// cmd/bench-check.
//
// Each entry records ns/op, B/op, allocs/op and GFLOP/s so both throughput
// regressions and allocation regressions in the iteration loop are visible
// in a single diff of BENCH_kernels.json. The end-to-end runs are
// additionally broken down into per-stage rows (Gram, CholCP, TRSM,
// Swap, Trmm) via internal/trace.
//
// Usage:
//
//	go run ./cmd/bench-kernels -o BENCH_kernels.json   # the committed baseline
//	go run ./cmd/bench-kernels -quick -o new.json      # the CI smoke preset
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	tsqrcp "repro"
	"repro/internal/blas"
	"repro/internal/cholcp"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/sketch"
	"repro/internal/trace"
	"repro/mat"
	"repro/metrics"
	"repro/service"
	"repro/testmat"
)

// benchRuns is the number of testing.Benchmark runs behind each row,
// each of benchTime, of which the row records the one with the median
// ns/op: together the testing package's default second, so that one
// noisy run on a shared host does not decide a gated row.
const (
	benchRuns = 3
	benchTime = "333ms"
)

// setBenchTime sets the run time of each testing.Benchmark call to d,
// through the testing package's own flag, registered on a throwaway flag
// set so this command's flags stay its own.
func setBenchTime(d string) error {
	cl := flag.CommandLine
	defer func() { flag.CommandLine = cl }()
	flag.CommandLine = flag.NewFlagSet("testing", flag.ContinueOnError)
	testing.Init()
	return flag.CommandLine.Set("test.benchtime", d)
}

func run(name string, m, n int, flops float64, bench func(b *testing.B)) metrics.Record {
	results := make([]testing.BenchmarkResult, benchRuns)
	for i := range results {
		results[i] = testing.Benchmark(bench)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].NsPerOp() < results[j].NsPerOp() })
	res := results[len(results)/2]
	ns := float64(res.NsPerOp())
	gflops := 0.0
	if ns > 0 && flops > 0 {
		gflops = flops / ns // flop/ns == GFLOP/s
	}
	r := metrics.Record{
		Name:        name,
		M:           m,
		N:           n,
		Iters:       res.N,
		NsPerOp:     ns,
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		GFLOPS:      gflops,
	}
	fmt.Fprintf(os.Stderr, "%-24s m=%-7d n=%-4d %12.0f ns/op %6d allocs/op %8.2f GFLOP/s\n",
		name, m, n, ns, r.AllocsPerOp, gflops)
	return r
}

func randDense(rng *rand.Rand, m, n int) *mat.Dense {
	a := mat.NewDense(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	return a
}

func upperTriangular(rng *rand.Rand, n int) *mat.Dense {
	r := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		r.Set(i, i, 1+rng.Float64())
		for j := i + 1; j < n; j++ {
			r.Set(i, j, rng.NormFloat64()/float64(n))
		}
	}
	return r
}

// batchSize is the number of problems in the QRCPBatch throughput rows.
const batchSize = 32

// stageRows runs one end-to-end factorization reps times, each traced on
// its own, and converts the breakdowns to per-stage benchmark rows:
// NsPerOp is the stage's median attributed time over the reps runs, so
// neither one stalled run nor one pause outside every stage decides a
// gated row, and stage rows for one shape sum to ≈ the Total row.
func stageRows(name string, m, n, reps int, one func() error) []metrics.Record {
	runs := make([]trace.Report, reps)
	for i := range runs {
		trace.Reset()
		trace.Enable()
		sp := trace.Region(trace.StageTotal)
		err := one()
		sp.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s (traced): %v\n", name, err)
			os.Exit(1)
		}
		runs[i] = trace.Snapshot()
		trace.Disable()
	}

	var out []metrics.Record
	add := func(stage string) {
		var sts []trace.StageStats
		for _, r := range runs {
			if st, ok := r.Stage(stage); ok {
				sts = append(sts, st)
			}
		}
		if len(sts) == 0 {
			return
		}
		sort.Slice(sts, func(i, j int) bool { return sts[i].TotalNs < sts[j].TotalNs })
		st := sts[len(sts)/2]
		ns := float64(st.TotalNs)
		r := metrics.Record{
			Name:    name,
			Stage:   stage,
			M:       m,
			N:       n,
			Iters:   reps,
			NsPerOp: ns,
			GFLOPS:  st.GFLOPS,
		}
		fmt.Fprintf(os.Stderr, "%-24s m=%-7d n=%-4d %12.0f ns/op %24s %8.2f GFLOP/s\n",
			name+"/"+stage, m, n, ns, "", st.GFLOPS)
		out = append(out, r)
	}
	for _, s := range trace.StageRows() {
		add(s.String())
	}
	add(trace.StageTotal.String())
	return out
}

// fail reports err and ends the run with exit status 1.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench-kernels:", err)
	os.Exit(1)
}

func main() {
	out := flag.String("o", "BENCH_kernels.json", "output JSON path")
	quick := flag.Bool("quick", false, "the CI smoke preset: no m=1e5 shapes, end-to-end rows at m=4000, 120 service jobs per shape")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	rtracePath := flag.String("runtime-trace", "", "write a runtime/trace execution trace to this file")
	flag.Parse()
	if err := setBenchTime(benchTime); err != nil {
		fmt.Fprintln(os.Stderr, "bench-kernels:", err)
		os.Exit(2)
	}

	stopProf, err := trace.StartProfiles(*cpuProfile, *rtracePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-kernels:", err)
		os.Exit(2)
	}
	defer stopProf()

	ms, e2eM, serviceJobs := []int{10000, 100000}, 10000, 400
	if *quick {
		ms, e2eM, serviceJobs = []int{10000}, 4000, 120
	}
	ns := []int{64, 128, 256}
	// Fail on an unwritable output path now, not after minutes of benchmarks.
	if f, err := os.OpenFile(*out, os.O_CREATE|os.O_WRONLY, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench-kernels:", err)
		os.Exit(2)
	} else {
		f.Close()
	}

	rep := metrics.File{Header: metrics.NewHeader()}
	rng := rand.New(rand.NewSource(42))

	// The machine ceiling: one core's fma throughput from an assembly
	// loop of 12 independent chains on the widest registers the tiles
	// run, recorded as a metric row (never compared against the
	// baseline) whose stage names the width, where the assembly runs.
	var peak float64
	if lanes := blas.FMAPeak(1); lanes > 0 {
		const steps = 1 << 16
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				blas.FMAPeak(steps)
			}
		})
		peak = float64(24*lanes*steps) / float64(res.NsPerOp())
		width := map[int]string{4: "ymm", 8: "zmm"}[lanes]
		rep.Records = append(rep.Records, metrics.Record{
			Name: "FMAPeak", Stage: width, M: 1, N: 12, Iters: res.N, Value: peak, Unit: "GFLOP/s",
		})
		fmt.Fprintf(os.Stderr, "%-24s %60.2f GFLOP/s on one core\n", "FMAPeak/"+width, peak)
	}
	// atPeak sets pct_peak from the flops the kernel executes per op,
	// which differs from the row's gflops for Gram (the row counts the
	// full 2·m·n² product, the SYRK computes its upper triangle), Trmm
	// (n·(n+1)·n against the row's n³) and PCholCP (its SYRKs count as
	// Gram does).
	atPeak := func(r metrics.Record, flops float64) metrics.Record {
		if peak > 0 {
			r.PctPeak = 100 * flops / r.NsPerOp / (peak * float64(runtime.GOMAXPROCS(0)))
		}
		return r
	}

	for _, m := range ms {
		for _, n := range ns {
			a := randDense(rng, m, n)
			w := mat.NewDense(n, n)
			rep.Records = append(rep.Records, atPeak(run(
				"Gram", m, n, 2*float64(m)*float64(n)*float64(n),
				func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						blas.Gram(parallel.Default, w, a)
					}
				}), float64(m)*float64(n)*float64(n+1)))

			r := upperTriangular(rng, n)
			work := mat.NewDense(m, n)
			rep.Records = append(rep.Records, atPeak(run(
				"TrsmRight", m, n, float64(m)*float64(n)*float64(n),
				func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						work.Copy(a)
						b.StartTimer()
						blas.TrsmRightUpperNoTrans(parallel.Default, work, r)
					}
				}), float64(m)*float64(n)*float64(n)))

			bb := randDense(rng, n, n)
			c := mat.NewDense(m, n)
			rep.Records = append(rep.Records, atPeak(run(
				"GemmNN", m, n, 2*float64(m)*float64(n)*float64(n),
				func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						blas.Gemm(parallel.Default, blas.NoTrans, blas.NoTrans, 1, a, bb, 0, c)
					}
				}), 2*float64(m)*float64(n)*float64(n)))
		}
	}

	// The two GEMM shapes of the Householder QRCP baseline, with its
	// 32-column reflector panel V on a 10000×256 problem: Larfb's
	// W = Vᵀ·C (Orgqr) and laqps's trailing update C −= V·Fᵀ (Geqp3).
	// They draw from their own generator so the rows above and below keep
	// their inputs.
	{
		const hm, hn, hk = 10000, 256, 32
		hrng := rand.New(rand.NewSource(43))
		v := randDense(hrng, hm, hk)
		c := randDense(hrng, hm, hn)
		w := mat.NewDense(hk, hn)
		f := randDense(hrng, hn, hk)
		flops := 2 * float64(hm) * float64(hn) * float64(hk)
		rep.Records = append(rep.Records, atPeak(run("GemmTN", hm, hn, flops, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				blas.Gemm(parallel.Default, blas.Trans, blas.NoTrans, 1, v, c, 0, w)
			}
		}), flops))
		rep.Records = append(rep.Records, atPeak(run("GemmNT", hm, hn, flops, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				blas.Gemm(parallel.Default, blas.NoTrans, blas.Trans, -1, v, f, 1, c)
			}
		}), flops))
	}

	// The n×n tail of Ite-CholQR-CP: the R accumulation (TRMM), the
	// left TRSM of the fixed-block elimination, and P-Chol-CP on a
	// full-rank Gram (ε = 0, so every pivot is factored). The rows count
	// the textbook flops (n³, n³ and n³/3), pct_peak the executed ones.
	// They draw from their own generator so the rows below keep their
	// inputs.
	{
		trng := rand.New(rand.NewSource(44))
		for _, n := range ns {
			a := upperTriangular(trng, n)
			b0 := upperTriangular(trng, n)
			work := mat.NewDense(n, n)
			nominal := float64(n) * float64(n) * float64(n)
			rep.Records = append(rep.Records, atPeak(run("Trmm", n, n, nominal, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					work.Copy(b0)
					b.StartTimer()
					blas.TrmmLeftUpperNoTrans(a, work)
				}
			}), float64(blas.TrmmFlops(n, n))))
			rep.Records = append(rep.Records, atPeak(run("TrsmLeft", n, n, nominal, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					work.Copy(b0)
					b.StartTimer()
					blas.TrsmLeftUpperTrans(a, work)
				}
			}), float64(blas.TrsmLeftFlops(n, n))))
			w := mat.NewDense(n, n)
			blas.Gram(parallel.Default, w, randDense(trng, 2*n, n))
			rep.Records = append(rep.Records, atPeak(run("PCholCP", n, n, nominal/3, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cholcp.PCholCP(parallel.Default, w, 0)
				}
			}), float64(cholcp.Flops(n, n))))
		}
	}

	for _, n := range ns {
		m := e2eM
		a := testmat.Generate(rng, m, n, (n*4)/5, 1e-12)
		rep.Records = append(rep.Records, run(
			"IteCholQRCP", m, n, 0,
			func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.IteCholQRCP(parallel.Default, a, core.DefaultPivotTol, a.Cols); err != nil {
						fmt.Fprintln(os.Stderr, "IteCholQRCP:", err)
						os.Exit(1)
					}
				}
			}))
		rep.Records = append(rep.Records, stageRows("IteCholQRCP", m, n, 3, func() error {
			_, err := core.IteCholQRCP(parallel.Default, a, core.DefaultPivotTol, a.Cols)
			return err
		})...)
	}

	// Fused permute→TRSM→Gram pass vs the separate three-sweep sequence on
	// the memory-bound tall-skinny shape. Both rows attribute the same flop
	// count (the TRSM's m·n² plus the SYRK's m·n·(n+1)), so their GFLOP/s
	// ratio IS the wall-clock speedup bench-check gates; gbps reports each
	// variant's effective DRAM rate over its own attributed traffic
	// (16·m·n bytes for the single fused sweep, 40·m·n for
	// permute + TRSM + Gram). The shape is fixed so the quick CI smoke run
	// produces the same row keys as the committed baseline.
	{
		const fusedM, fusedN = 1_000_000, 64
		a := randDense(rng, fusedM, fusedN)
		r := upperTriangular(rng, fusedN)
		perm := mat.Perm(rng.Perm(fusedN))
		work := mat.NewDense(fusedM, fusedN)
		g := mat.NewDense(fusedN, fusedN)
		flops := float64(fusedM)*float64(fusedN)*float64(fusedN) +
			float64(fusedM)*float64(fusedN)*float64(fusedN+1)

		fused := run("PermTrsmGramFused", fusedM, fusedN, flops, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				work.Copy(a)
				b.StartTimer()
				blas.PermTrsmGramFused(parallel.Default, work, perm, r, g)
			}
		})
		fused.Gbps = 16 * float64(fusedM) * float64(fusedN) / fused.NsPerOp
		rep.Records = append(rep.Records, atPeak(fused, flops))

		unfused := run("PermTrsmGramUnfused", fusedM, fusedN, flops, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				work.Copy(a)
				b.StartTimer()
				mat.PermuteColsInPlaceEngine(parallel.Default, work, perm)
				blas.TrsmRightUpperNoTrans(parallel.Default, work, r)
				blas.Gram(parallel.Default, g, work)
			}
		})
		unfused.Gbps = 40 * float64(fusedM) * float64(fusedN) / unfused.NsPerOp
		rep.Records = append(rep.Records, unfused)
		fmt.Fprintf(os.Stderr, "%-24s m=%-7d n=%-4d %36.2fx wall-clock speedup (%.1f / %.1f GB/s effective)\n",
			"Fused vs unfused", fusedM, fusedN, unfused.NsPerOp/fused.NsPerOp, fused.Gbps, unfused.Gbps)
	}

	// CQRRPT A/B: the randomized-preconditioning path against the fused
	// iterated baseline on the very tall reference shape, plus the sketch
	// kernel on its own. The shape is fixed (not derived from -quick) so
	// the quick CI smoke run produces the same row keys as the committed
	// baseline — cmd/bench-check gates the pair's wall-clock ratio at
	// ≥ 1.3× on every run (see bench/SCHEMA.md).
	{
		const cqM, cqN = 1_000_000, 64
		const cqSeed = 42
		a := testmat.Generate(rng, cqM, cqN, (cqN*4)/5, 1e-12)

		// The sketch kernel at the A/B shape (d = 128, all cores) and at
		// the cqrrpt-vtall workload's 8192×32 (d = 64) on one core, as
		// that workload runs it; gbps counts the one read of A.
		sketchRow := func(e *parallel.Engine, a *mat.Dense) metrics.Record {
			m, n := a.Rows, a.Cols
			nnz := min(sketch.DefaultNNZ, core.CQRRPTSketchFactor*n)
			sa := mat.NewDense(core.CQRRPTSketchFactor*n, n)
			r := run("SketchSparse", m, n, 2*float64(m)*float64(n)*float64(nnz), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sketch.ApplySparse(e, sa, a, nnz, cqSeed)
				}
			})
			r.Gbps = 8 * float64(m) * float64(n) / r.NsPerOp
			return r
		}
		rep.Records = append(rep.Records,
			sketchRow(parallel.Default, a), sketchRow(parallel.NewEngine(1), randDense(rng, 8192, 32)))

		cq := run("CQRRPT", cqM, cqN, 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.CQRRPT(parallel.Default, a, core.DefaultPivotTol, cqSeed); err != nil {
					fmt.Fprintln(os.Stderr, "CQRRPT:", err)
					os.Exit(1)
				}
			}
		})
		rep.Records = append(rep.Records, cq)

		ite := run("IteCholQRCP", cqM, cqN, 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.IteCholQRCP(parallel.Default, a, core.DefaultPivotTol, a.Cols); err != nil {
					fmt.Fprintln(os.Stderr, "IteCholQRCP:", err)
					os.Exit(1)
				}
			}
		})
		rep.Records = append(rep.Records, ite)
		fmt.Fprintf(os.Stderr, "%-24s m=%-7d n=%-4d %36.2fx wall-clock speedup\n",
			"CQRRPT vs IteCholQRCP", cqM, cqN, ite.NsPerOp/cq.NsPerOp)
	}

	// Accuracy parity rows: CQRRPT against the Householder QRCP reference
	// on a shape small enough to factor both ways, emitted as dimensionless
	// metric rows (Value/Unit) and gated against the absolute
	// metrics.CQRRPT*Tol thresholds by cmd/bench-check — the certificate
	// that the wall-clock win above is an apples-to-apples comparison.
	{
		const pM, pN = 20000, 64
		const pRank = (pN * 4) / 5
		a := testmat.Generate(rng, pM, pN, pRank, 1e-12)
		res, err := core.CQRRPT(parallel.Default, a, core.DefaultPivotTol, 42)
		if err != nil {
			fmt.Fprintln(os.Stderr, "CQRRPT (parity):", err)
			os.Exit(1)
		}
		ref := core.HQRCP(parallel.Default, a.Clone())
		orth := metrics.Orthogonality(res.Q)
		resid := metrics.Residual(a, res.Q, res.R, res.Perm)
		pq := metrics.PivotQuality(res.R, ref.R, pRank)
		for _, pr := range metrics.ParityRecords("CQRRPTParity", orth, resid, pq) {
			rep.Records = append(rep.Records, metrics.Record{
				Name: pr.Name, Stage: pr.Stage, M: pM, N: pN, Iters: 1,
				Value: pr.Value, Unit: "ratio",
			})
			fmt.Fprintf(os.Stderr, "%-24s m=%-7d n=%-4d %12.3g\n",
				pr.Name+"/"+pr.Stage, pM, pN, pr.Value)
		}
		rep.Records = append(rep.Records, stageRows("CQRRPT", pM, pN, 3, func() error {
			_, err := core.CQRRPT(parallel.Default, a, core.DefaultPivotTol, 42)
			return err
		})...)
	}

	// Batch serving throughput: batchSize independent tall-skinny problems
	// sharded across the persistent pool by Engine.QRCPBatch. The gated
	// figure is problems/sec — the serving-shaped metric — rather than
	// GFLOP/s, which rewards big matrices over fast turnaround.
	// The shape is fixed (not derived from -quick) so the quick CI smoke
	// run produces rows with the same key as the committed baseline and
	// bench-check actually gates them.
	const batchM = 1000
	for _, n := range []int{64, 128} {
		problems := make([]*mat.Dense, batchSize)
		for i := range problems {
			problems[i] = testmat.Generate(rng, batchM, n, (n*4)/5, 1e-12)
		}
		r := run("QRCPBatch", batchM, n, 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				results, err := tsqrcp.QRCPBatch(context.Background(), problems, nil)
				if err != nil {
					fmt.Fprintln(os.Stderr, "QRCPBatch:", err)
					os.Exit(1)
				}
				for j := range results {
					if results[j].Err != nil {
						fmt.Fprintln(os.Stderr, "QRCPBatch problem:", results[j].Err)
						os.Exit(1)
					}
				}
			}
		})
		r.ProblemsPerSec = float64(batchSize) * 1e9 / r.NsPerOp
		fmt.Fprintf(os.Stderr, "%-24s m=%-7d n=%-4d %37.1f problems/s\n", "QRCPBatch", batchM, n, r.ProblemsPerSec)
		rep.Records = append(rep.Records, r)
	}

	oocRecs, err := oocRows(rng)
	if err != nil {
		fail(err)
	}
	rep.Records = append(rep.Records, oocRecs...)

	// The service layer end to end: an in-process qrcpd on a loopback
	// port, driven by concurrent pipelined clients. The smoke-gate shape
	// first (bench-check's absolute jobs/sec floor reads it), then a wider
	// shape for the latency/batching profile; the shapes are fixed so the
	// quick CI smoke run produces the same row keys as the committed
	// baseline.
	srv := service.New(service.Config{BatchSize: serviceBatch, FlushInterval: serviceFlush})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	//repolint:allow ctxcancel — benchmark harness; Shutdown below closes the listener and ends Serve
	go srv.Serve(ln)
	for _, sh := range []struct{ m, n int }{{1000, 32}, {2000, 64}} {
		recs, err := serviceRows(ln.Addr().String(), sh.m, sh.n, serviceJobs)
		if err != nil {
			fail(err)
		}
		rep.Records = append(rep.Records, recs...)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	srv.Shutdown(ctx)
	cancel()

	if err := rep.Write(*out); err != nil {
		fail(err)
	}
	fmt.Fprintln(os.Stderr, "wrote", *out)
}

// oocRows times the out-of-core streaming factorization: the matrix
// lives in a temp file and QRCPFile streams it panel-by-panel with
// prefetch overlap. Two rows are gated: gbps is the input factored per
// wall-clock nanosecond (8·m·n bytes over ns/op, so it moves only with
// ns/op and never rewards an extra read of A), and the
// PrefetchStallFraction metric row is the share of wall-clock the
// compute side spent blocked waiting for its next panel — < 0.5 means the pipeline hides at least
// half the disk time (gated absolutely by cmd/bench-check, like the
// parity rows). The shape is fixed so the quick CI smoke run produces
// the same row keys as the committed baseline. The temp file is removed
// on every return.
func oocRows(rng *rand.Rand) ([]metrics.Record, error) {
	const oocM, oocN = 200_000, 64
	const oocReps = 3
	a := testmat.Generate(rng, oocM, oocN, (oocN*4)/5, 1e-12)
	f, err := os.CreateTemp("", "bench-ooc-*.tsqrmat")
	if err != nil {
		return nil, err
	}
	oocPath := f.Name()
	f.Close()
	defer os.Remove(oocPath)
	if err := a.WriteBinaryFile(oocPath); err != nil {
		return nil, err
	}

	trace.Reset()
	trace.Enable()
	defer trace.Disable()
	start := time.Now()
	for i := 0; i < oocReps; i++ {
		if _, err := tsqrcp.QRCPFile(oocPath, nil); err != nil {
			return nil, fmt.Errorf("OOCQRCP: %w", err)
		}
	}
	wallNs := time.Since(start).Nanoseconds()
	snap := trace.Snapshot()

	ooc := metrics.Record{
		Name:    "OOCQRCP",
		M:       oocM,
		N:       oocN,
		Iters:   oocReps,
		NsPerOp: float64(wallNs) / oocReps,
	}
	ooc.Gbps = 8 * oocM * oocN / ooc.NsPerOp
	stallFrac := float64(snap.Counters["ooc_prefetch_stall_ns"]) / float64(wallNs)
	fmt.Fprintf(os.Stderr, "%-24s m=%-7d n=%-4d %12.0f ns/op %24s %8.2f GB/s factored, stall %.3f\n",
		"OOCQRCP", oocM, oocN, ooc.NsPerOp, "", ooc.Gbps, stallFrac)
	return []metrics.Record{ooc, {
		Name: "OOCQRCP", Stage: "PrefetchStallFraction",
		M: oocM, N: oocN, Iters: oocReps,
		Value: stallFrac, Unit: "ratio",
	}}, nil
}

// The served loopback setup: serviceClients concurrent connections to a
// server that flushes a bucket when serviceBatch jobs fill it or
// serviceFlush passes.
const (
	serviceClients = 8
	serviceBatch   = 32
	serviceFlush   = 2 * time.Millisecond
)

// serviceRows drives one (m, n) shape on the qrcpd at addr with
// serviceClients connections until jobs jobs completed, each row from
// that single run:
//
//	{Name: "ServiceQRCP", m, n}                   jobs/sec (problems_per_sec), mean latency (ns_per_op)
//	                                              and bytes allocated per job, both ends (bytes_per_op)
//	{Name: "ServiceQRCP", Stage: "latency_p50"}   p50 latency (ns_per_op)
//	{Name: "ServiceQRCP", Stage: "latency_p99"}   p99 latency (ns_per_op)
func serviceRows(addr string, m, n, jobs int) ([]metrics.Record, error) {
	rng := rand.New(rand.NewSource(42))
	// One canonical matrix per shape: serving-identical jobs is the
	// bucketing best case and keeps the measurement about the service
	// layer, not generator variance.
	a := testmat.Generate(rng, m, n, (n*4)/5, 1e-12)

	conns := make([]*service.Client, serviceClients)
	for i := range conns {
		c, err := service.Dial(addr)
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		defer c.Close()
		conns[i] = c
	}

	// Warmup: populate engine workspace pools and warm the buckets.
	warm := min(jobs/10+1, 16)
	for i := 0; i < warm; i++ {
		if _, err := conns[i%serviceClients].Factor(context.Background(), service.Request{Tenant: "bench", A: a}); err != nil {
			return nil, fmt.Errorf("warmup: %w", err)
		}
	}

	latencies := make([]time.Duration, jobs)
	var next int
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for _, c := range conns {
		wg.Add(1)
		go func(c *service.Client) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i >= jobs || firstErr != nil {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				t0 := time.Now()
				_, err := c.Factor(context.Background(), service.Request{Tenant: "bench", A: a})
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				latencies[i] = time.Since(t0)
			}
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	// Server and clients share this process, so the delta covers both
	// ends of the wire.
	bytesPerJob := int64(ms1.TotalAlloc-ms0.TotalAlloc) / int64(jobs)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	quantile := func(q float64) float64 {
		return float64(latencies[int(q*float64(len(latencies)-1))])
	}
	var sum time.Duration
	for _, l := range latencies {
		sum += l
	}
	mean := float64(sum) / float64(jobs)
	jobsPerSec := float64(jobs) / wall.Seconds()
	p50, p99 := quantile(0.50), quantile(0.99)

	fmt.Fprintf(os.Stderr, "%-24s m=%-7d n=%-4d %10.1f jobs/s  p50 %8.2fms  p99 %8.2fms  mean %8.2fms  %8d B/job  (%d jobs, %d clients)\n",
		"ServiceQRCP", m, n, jobsPerSec, p50/1e6, p99/1e6, mean/1e6, bytesPerJob, jobs, serviceClients)
	return []metrics.Record{
		{Name: "ServiceQRCP", M: m, N: n, Iters: jobs, NsPerOp: mean, BytesPerOp: bytesPerJob, ProblemsPerSec: jobsPerSec},
		{Name: "ServiceQRCP", Stage: "latency_p50", M: m, N: n, Iters: jobs, NsPerOp: p50},
		{Name: "ServiceQRCP", Stage: "latency_p99", M: m, N: n, Iters: jobs, NsPerOp: p99},
	}, nil
}
