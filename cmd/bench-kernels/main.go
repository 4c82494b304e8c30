// Command bench-kernels measures the Level-3 kernels on the Ite-CholQR-CP
// hot path (Gram, TRSM, GEMM, sparse-sign sketch), read against a
// single-core FMA peak probe, and the two GEMMs of the Householder QRCP
// baseline, plus the end-to-end factorizations —
// the iterated baseline, the randomized CQRRPT A/B pair
// with its accuracy parity rows, and batch throughput — and writes the
// results as JSON for regression tracking (`make bench-json`). The JSON
// layout is documented in bench/SCHEMA.md and gated in CI by
// cmd/bench-check.
//
// Each entry records ns/op, B/op, allocs/op and GFLOP/s so both throughput
// regressions and allocation regressions in the iteration loop are visible
// in a single diff of BENCH_kernels.json. With -trace the end-to-end runs
// are additionally broken down into per-stage rows (Gram, CholCP, TRSM,
// Swap, Trmm) via internal/trace.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	tsqrcp "repro"
	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/sketch"
	"repro/internal/trace"
	"repro/mat"
	"repro/metrics"
	"repro/testmat"
)

type record struct {
	Name string `json:"name"`
	// Stage is set on -trace rows only: the algorithm stage this row
	// attributes part of the parent Name's run to. Stage rows carry no
	// allocation data and "Total" is the only row comparable to the
	// whole-run entry.
	Stage       string  `json:"stage,omitempty"`
	M           int     `json:"m"`
	N           int     `json:"n"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	GFLOPS      float64 `json:"gflops"`
	// Gbps is the effective DRAM traffic rate (attributed bytes moved per
	// wall-clock nanosecond ≡ GB/s), set on the memory-bound fused-kernel
	// comparison rows only. It makes the point of the fusion visible in
	// the JSON: the fused row moves 16·m·n bytes where the unfused
	// sequence moves 40·m·n, at similar GB/s.
	Gbps float64 `json:"gbps,omitempty"`
	// ProblemsPerSec is set on batch rows only: factorizations completed
	// per second across the whole batch.
	ProblemsPerSec float64 `json:"problems_per_sec,omitempty"`
	// Value/Unit are set on accuracy metric rows only (CQRRPTParity): the
	// measured dimensionless metric named by Stage. Metric rows carry no
	// timing data (ns_per_op is 0) and are gated against absolute
	// thresholds (metrics.CQRRPT*Tol) by cmd/bench-check rather than
	// compared to the baseline.
	Value float64 `json:"value,omitempty"`
	Unit  string  `json:"unit,omitempty"`
	// PctPeak is set on the Level-3 kernel rows: the flops the kernel
	// executes per second as a percentage of the FMAPeak row times
	// GOMAXPROCS, the ceiling of the cores the default engine runs on.
	// Informational, never gated.
	PctPeak float64 `json:"pct_peak,omitempty"`
}

type report struct {
	Schema     string   `json:"schema"`
	Date       string   `json:"date"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Records    []record `json:"records"`
}

func run(name string, m, n int, flops float64, bench func(b *testing.B)) record {
	res := testing.Benchmark(bench)
	ns := float64(res.NsPerOp())
	gflops := 0.0
	if ns > 0 && flops > 0 {
		gflops = flops / ns // flop/ns == GFLOP/s
	}
	r := record{
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

// stageRows runs one end-to-end factorization reps times under tracing and
// converts the breakdown to per-stage benchmark rows: NsPerOp is the
// average attributed time per factorization over reps runs, so stage rows
// for one shape sum to ≈ the Total row.
func stageRows(name string, m, n, reps int, one func() error) []record {
	trace.Reset()
	trace.Enable()
	for i := 0; i < reps; i++ {
		sp := trace.Region(trace.StageTotal)
		err := one()
		sp.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s (traced): %v\n", name, err)
			os.Exit(1)
		}
	}
	rep := trace.Snapshot()
	trace.Disable()

	var out []record
	add := func(stage string) {
		st, ok := rep.Stage(stage)
		if !ok {
			return
		}
		ns := float64(st.TotalNs) / float64(reps)
		r := record{
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

func main() {
	out := flag.String("o", "BENCH_kernels.json", "output JSON path")
	quick := flag.Bool("quick", false, "skip the m=1e5 shapes (fast smoke run)")
	e2eM := flag.Int("e2e-m", 10000, "row count for the end-to-end IteCholQRCP entries")
	traced := flag.Bool("trace", false, "add per-stage breakdown rows for the end-to-end entries")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	rtracePath := flag.String("runtime-trace", "", "write a runtime/trace execution trace to this file")
	flag.Parse()

	stopProf, err := trace.StartProfiles(*pprofAddr, *cpuProfile, *rtracePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-kernels:", err)
		os.Exit(2)
	}
	defer stopProf()

	ms := []int{10000, 100000}
	if *quick {
		ms = []int{10000}
	}
	ns := []int{64, 128, 256}
	if *e2eM < ns[len(ns)-1] {
		fmt.Fprintf(os.Stderr, "bench-kernels: -e2e-m must be at least %d (tall-skinny: m ≥ n), got %d\n", ns[len(ns)-1], *e2eM)
		os.Exit(2)
	}
	// Fail on an unwritable output path now, not after minutes of benchmarks.
	if f, err := os.OpenFile(*out, os.O_CREATE|os.O_WRONLY, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench-kernels:", err)
		os.Exit(2)
	} else {
		f.Close()
	}

	rep := report{
		Schema:     metrics.SchemaVersion,
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
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
		rep.Records = append(rep.Records, record{
			Name: "FMAPeak", Stage: width, M: 1, N: 12, Iters: res.N, Value: peak, Unit: "GFLOP/s",
		})
		fmt.Fprintf(os.Stderr, "%-24s %60.2f GFLOP/s on one core\n", "FMAPeak/"+width, peak)
	}
	// atPeak sets pct_peak from the flops the kernel executes per op,
	// which differs from the row's gflops only for Gram (the row counts
	// the full 2·m·n² product, the SYRK computes its upper triangle).
	atPeak := func(r record, flops float64) record {
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
						blas.Gram(nil, w, a)
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
						blas.TrsmRightUpperNoTrans(nil, work, r)
					}
				}), float64(m)*float64(n)*float64(n)))

			bb := randDense(rng, n, n)
			c := mat.NewDense(m, n)
			rep.Records = append(rep.Records, atPeak(run(
				"GemmNN", m, n, 2*float64(m)*float64(n)*float64(n),
				func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						blas.Gemm(nil, blas.NoTrans, blas.NoTrans, 1, a, bb, 0, c)
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
				blas.Gemm(nil, blas.Trans, blas.NoTrans, 1, v, c, 0, w)
			}
		}), flops))
		rep.Records = append(rep.Records, atPeak(run("GemmNT", hm, hn, flops, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				blas.Gemm(nil, blas.NoTrans, blas.Trans, -1, v, f, 1, c)
			}
		}), flops))
	}

	for _, n := range ns {
		m := *e2eM
		a := testmat.Generate(rng, m, n, (n*4)/5, 1e-12)
		rep.Records = append(rep.Records, run(
			"IteCholQRCP", m, n, 0,
			func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.IteCholQRCP(nil, a, core.DefaultPivotTol); err != nil {
						fmt.Fprintln(os.Stderr, "IteCholQRCP:", err)
						os.Exit(1)
					}
				}
			}))
		if *traced {
			rep.Records = append(rep.Records, stageRows("IteCholQRCP", m, n, 3, func() error {
				_, err := core.IteCholQRCP(nil, a, core.DefaultPivotTol)
				return err
			})...)
		}
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
				blas.PermTrsmGramFused(nil, work, perm, r, g)
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
				mat.PermuteColsInPlace(work, perm)
				blas.TrsmRightUpperNoTrans(nil, work, r)
				blas.Gram(nil, g, work)
			}
		})
		unfused.Gbps = 40 * float64(fusedM) * float64(fusedN) / unfused.NsPerOp
		rep.Records = append(rep.Records, unfused)
		fmt.Fprintf(os.Stderr, "%-24s m=%-7d n=%-4d %36.2fx wall-clock speedup (%.1f / %.1f GB/s effective)\n",
			"Fused vs unfused", fusedM, fusedN, unfused.NsPerOp/fused.NsPerOp, fused.Gbps, unfused.Gbps)
	}

	// CQRRPT A/B: the randomized-preconditioning path against the fused
	// iterated baseline on the very tall reference shape, plus the sketch
	// kernel on its own. The shape is fixed (not derived from -e2e-m) so
	// the quick CI smoke run produces the same row keys as the committed
	// baseline — cmd/bench-check gates the pair's wall-clock ratio at
	// ≥ 1.3× on every run (see bench/SCHEMA.md).
	{
		const cqM, cqN = 1_000_000, 64
		const cqSeed = 42
		a := testmat.Generate(rng, cqM, cqN, (cqN*4)/5, 1e-12)

		nnz := sketch.DefaultNNZ
		if d := core.CQRRPTSketchFactor * cqN; nnz > d {
			nnz = d
		}
		sa := mat.NewDense(core.CQRRPTSketchFactor*cqN, cqN)
		rep.Records = append(rep.Records, run(
			"SketchSparse", cqM, cqN, 2*float64(cqM)*float64(cqN)*float64(nnz),
			func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sketch.ApplySparse(nil, sa, a, nnz, cqSeed)
				}
			}))

		cq := run("CQRRPT", cqM, cqN, 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.CQRRPT(nil, a, core.DefaultPivotTol, cqSeed); err != nil {
					fmt.Fprintln(os.Stderr, "CQRRPT:", err)
					os.Exit(1)
				}
			}
		})
		rep.Records = append(rep.Records, cq)

		ite := run("IteCholQRCP", cqM, cqN, 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.IteCholQRCP(nil, a, core.DefaultPivotTol); err != nil {
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
		res, err := core.CQRRPT(nil, a, core.DefaultPivotTol, 42)
		if err != nil {
			fmt.Fprintln(os.Stderr, "CQRRPT (parity):", err)
			os.Exit(1)
		}
		ref := core.HQRCP(nil, a.Clone())
		orth := metrics.Orthogonality(res.Q)
		resid := metrics.Residual(a, res.Q, res.R, res.Perm)
		pq := metrics.PivotQuality(res.R, ref.R, pRank)
		for _, pr := range metrics.ParityRecords("CQRRPTParity", orth, resid, pq) {
			rep.Records = append(rep.Records, record{
				Name: pr.Name, Stage: pr.Stage, M: pM, N: pN, Iters: 1,
				Value: pr.Value, Unit: "ratio",
			})
			fmt.Fprintf(os.Stderr, "%-24s m=%-7d n=%-4d %12.3g\n",
				pr.Name+"/"+pr.Stage, pM, pN, pr.Value)
		}
		if *traced {
			rep.Records = append(rep.Records, stageRows("CQRRPT", pM, pN, 3, func() error {
				_, err := core.CQRRPT(nil, a, core.DefaultPivotTol, 42)
				return err
			})...)
		}
	}

	// Batch serving throughput: batchSize independent tall-skinny problems
	// sharded across the persistent pool by Engine.QRCPBatch. The gated
	// figure is problems/sec — the serving-shaped metric — rather than
	// GFLOP/s, which rewards big matrices over fast turnaround.
	// The shape is fixed (not derived from -e2e-m) so the quick CI smoke
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

	// Out-of-core streaming factorization: the matrix lives in a temp
	// file and QRCPFile streams it panel-by-panel with prefetch overlap.
	// Two rows are gated: gbps is the streamed disk traffic rate
	// (ooc_bytes_read per wall-clock nanosecond — the figure of merit for
	// an I/O-overlapped sweep), and the PrefetchStallFraction metric row
	// is the share of wall-clock the compute side spent blocked waiting
	// for its next panel — < 0.5 means the pipeline hides at least half
	// the disk time (gated absolutely by cmd/bench-check, like the parity
	// rows). The shape is fixed so the quick CI smoke run produces the
	// same row keys as the committed baseline.
	{
		const oocM, oocN = 200_000, 64
		const oocReps = 3
		a := testmat.Generate(rng, oocM, oocN, (oocN*4)/5, 1e-12)
		f, err := os.CreateTemp("", "bench-ooc-*.tsqrmat")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench-kernels:", err)
			os.Exit(1)
		}
		oocPath := f.Name()
		f.Close()
		if err := a.WriteBinaryFile(oocPath); err != nil {
			fmt.Fprintln(os.Stderr, "bench-kernels:", err)
			os.Exit(1)
		}
		a = nil

		trace.Reset()
		trace.Enable()
		start := time.Now()
		for i := 0; i < oocReps; i++ {
			if _, err := tsqrcp.QRCPFile(oocPath, nil); err != nil {
				fmt.Fprintln(os.Stderr, "OOCQRCP:", err)
				os.Exit(1)
			}
		}
		wallNs := time.Since(start).Nanoseconds()
		snap := trace.Snapshot()
		trace.Disable()
		os.Remove(oocPath)

		ooc := record{
			Name:    "OOCQRCP",
			M:       oocM,
			N:       oocN,
			Iters:   oocReps,
			NsPerOp: float64(wallNs) / oocReps,
			Gbps:    float64(snap.Counters["ooc_bytes_read"]) / float64(wallNs),
		}
		rep.Records = append(rep.Records, ooc)
		stallFrac := float64(snap.Counters["ooc_prefetch_stall_ns"]) / float64(wallNs)
		rep.Records = append(rep.Records, record{
			Name: "OOCQRCP", Stage: "PrefetchStallFraction",
			M: oocM, N: oocN, Iters: oocReps,
			Value: stallFrac, Unit: "ratio",
		})
		fmt.Fprintf(os.Stderr, "%-24s m=%-7d n=%-4d %12.0f ns/op %24s %8.2f GB/s streamed, stall %.3f\n",
			"OOCQRCP", oocM, oocN, ooc.NsPerOp, "", ooc.Gbps, stallFrac)
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "wrote", *out)
}
