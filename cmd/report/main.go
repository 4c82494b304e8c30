// Command report regenerates the paper's evaluation — every figure and
// table of §III-C and §IV, plus the ε ablation and the §V comparators —
// and writes one self-contained text report (default: stdout; -o writes
// a file). -fig picks one figure (DESIGN.md §8 names the value of each);
// the default, all, runs every figure in the order of the paper.
//
//	go run ./cmd/report -o report.txt          # every figure, reduced sizes, ~30 s
//	go run ./cmd/report -paper -o report.txt   # the paper's sizes, hours
//	go run ./cmd/report -fig 1b                # one figure
//	go run ./cmd/report -fig t3 -trace         # measured ranks, Table III, stage trace
//
// To profile a figure's sweep, run its benchmark under the testing
// package's profiler: go test -bench BenchmarkFig4 -cpuprofile cpu.out.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/bench"
	"repro/dist"
	"repro/internal/trace"
	"repro/metrics"
)

// sizes are the problem sizes of one report: the reduced defaults, or
// the paper's with -paper.
type sizes struct {
	m, n, r      int // Figs. 1(a), 1(b), 2, 3 and the comparators
	mcCount, mcN int // Fig. 1(c): mcCount matrices of m×mcN
	ms           []int
	nrs          []bench.NR // Figs. 4, 5: the ms × nrs grid
	reps         int        // timed runs per cell, best kept
}

func sizesFor(paper bool) sizes {
	if paper {
		return sizes{
			m: bench.AccuracyShape.M, n: bench.AccuracyShape.N, r: bench.AccuracyShape.R,
			mcCount: 1000, mcN: 40,
			ms: bench.SingleNodeMs, nrs: bench.SingleNodeNRs, reps: bench.TimingRepeats,
		}
	}
	return sizes{
		m: 2000, n: 30, r: 24,
		mcCount: 100, mcN: 24,
		ms:   []int{10000, 40000},
		nrs:  []bench.NR{{N: 16, R: 13}, {N: 32, R: 26}, {N: 64, R: 51}, {N: 128, R: 102}, {N: 256, R: 205}},
		reps: 2,
	}
}

// The σ grid of Figs. 2 and 3.
var sigmas = []float64{1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14}

// The distributed models run at the paper's m = 2²⁴ over its n sweep and
// each machine's process counts (nodes × processes per node), with the
// 3 pivoting iterations observed at σ = 1e-12. They are the paper's sizes
// already, and the measured ranks of t3 run at laptop scale either way,
// so -paper leaves the distributed figures alone.
var (
	distNs  = []int{16, 32, 64, 128, 256, 512, 1024}
	obcxPs  = []int{16, 64, 256, 1024, 2048}   // 8 to 1024 nodes × 2
	bdecoPs = []int{32, 128, 512, 4096, 16384} // 8 to 4096 nodes × 4
	table3s = []int{16, 2048}                  // OBCX at 8 and 1024 nodes
	table3n = []int{16, 128, 1024}
)

const distIters = 3

// figure is one -fig value: the experiment it regenerates and the
// heading of the paper section it prints under.
type figure struct {
	key, section string
	run          func(w io.Writer, seed int64, s sizes)
}

const (
	secPrelim = "§III-C preliminary experiments"
	secAcc    = "§IV-B accuracy (Figs. 2, 3)"
	secSingle = "§IV-C single-node performance (Figs. 4, 5)"
	secDist   = "§IV-D distributed performance (Figs. 6–8, Table III)"
	secCmp    = "§V comparators"
)

var figures = []figure{
	{"1a", secPrelim, func(w io.Writer, seed int64, s sizes) {
		bench.PrintFig1a(w, bench.Fig1a(seed, s.m, s.n, s.r, 1e-12))
	}},
	{"1b", secPrelim, func(w io.Writer, seed int64, s sizes) {
		kappas := []float64{1, 1e2, 1e4, 1e6, 1e8, 1e10, 1e12, 1e14, 1e16}
		bench.PrintFig1b(w, bench.Fig1b(seed, s.m, s.n, kappas))
	}},
	{"1c", secPrelim, func(w io.Writer, seed int64, s sizes) {
		bench.PrintFig1c(w, bench.Fig1c(seed, s.mcCount, s.m, s.mcN))
	}},
	{"2", secAcc, func(w io.Writer, seed int64, s sizes) {
		bench.PrintFig2(w, bench.Fig2(seed, s.m, s.n, s.r, sigmas))
	}},
	{"3", secAcc, func(w io.Writer, seed int64, s sizes) {
		for _, eps := range []float64{1e-5, 0} {
			rows := bench.Fig3(seed, s.m, s.n, s.r, sigmas, eps)
			bench.PrintFig3(w, rows)
			if eps != 0 {
				fmt.Fprintf(w, "  all essential pivots correct: %v (paper: true)\n\n", bench.AllPivotsCorrect(rows))
			}
		}
	}},
	{"4", secSingle, func(w io.Writer, seed int64, s sizes) {
		fmt.Fprintf(w, "single-node sweep on %d cores, σ = %.0e, best of %d runs\n",
			runtime.GOMAXPROCS(0), bench.TimingSigma, s.reps)
		rows := bench.SingleNodeSweep(seed, s.ms, s.nrs, bench.TimingSigma, s.reps)
		bench.PrintFig4(w, rows)
		fmt.Fprintln(w)
		bench.PrintFig5(w, rows)
	}},
	{"eps", secSingle, func(w io.Writer, seed int64, s sizes) {
		epss := []float64{1e-2, 1e-3, 1e-5, 1e-8, 1e-10, 0}
		bench.PrintAblationEps(w, bench.AblationEps(seed, s.ms[0], 64, 51, bench.TimingSigma, epss))
	}},
	{"6", secDist, func(w io.Writer, _ int64, _ sizes) {
		bench.PrintDistScaling(w, dist.OBCX, bench.DistScalingModel(dist.OBCX, bench.DistM, distNs, obcxPs, distIters))
	}},
	{"7", secDist, func(w io.Writer, _ int64, _ sizes) {
		bench.PrintDistScaling(w, dist.BDECO, bench.DistScalingModel(dist.BDECO, bench.DistM, distNs, bdecoPs, distIters))
	}},
	{"8", secDist, func(w io.Writer, _ int64, _ sizes) {
		bench.PrintFig8(w, dist.OBCX, bench.DistM, obcxPs[len(obcxPs)-1], distIters, distNs)
		fmt.Fprintln(w)
		bench.PrintFig8(w, dist.BDECO, bench.DistM, bdecoPs[len(bdecoPs)-1], distIters, distNs)
	}},
	{"t3", secDist, func(w io.Writer, seed int64, _ sizes) {
		fmt.Fprintln(w, "== measured on in-process goroutine ranks (scaled-down m) ==")
		var rows []bench.DistMeasuredRow
		for _, p := range []int{2, 4, 8} {
			rows = append(rows, bench.DistMeasured(seed, 1<<17, 64, 51, bench.TimingSigma, p))
		}
		bench.PrintDistMeasured(w, rows)
		fmt.Fprintln(w)
		fmt.Fprintln(w, "== trace-driven extrapolation (both algorithms measured at small scale,")
		fmt.Fprintln(w, "   collective timeline replayed through the machine model) ==")
		bench.PrintDistScaling(w, dist.OBCX, bench.DistTraceExtrapolate(seed, 1<<16, 64, 51, bench.TimingSigma, 2,
			dist.OBCX, bench.DistM, obcxPs))
		fmt.Fprintln(w)
		bench.PrintTable3(w, dist.OBCX, bench.DistM, distIters, table3s, table3n)
	}},
	{"cmp", secCmp, func(w io.Writer, seed int64, s sizes) {
		bench.PrintComparators(w, bench.Comparators(seed, 4*s.m, min(s.n, 32), min(s.r, 26), 1e-8, s.reps))
	}},
}

// selectFigures returns the figure named by key, or every figure for
// "all".
func selectFigures(key string) ([]figure, error) {
	if key == "all" {
		return figures, nil
	}
	keys := make([]string, len(figures))
	for i, f := range figures {
		if f.key == key {
			return []figure{f}, nil
		}
		keys[i] = f.key
	}
	return nil, fmt.Errorf("unknown -fig %q (want all or one of %s)", key, strings.Join(keys, " "))
}

// writeReport runs figs and writes them under their section headings,
// with the stage-level trace breakdown of the whole run appended when
// traced.
func writeReport(w io.Writer, figs []figure, seed int64, paper, traced bool) {
	if traced {
		trace.Reset()
		trace.Enable()
		defer trace.Disable()
	}
	start := time.Now()
	fmt.Fprintf(w, "tsqrcp reproduction report — %s\n", time.Now().Format(time.RFC1123))
	fmt.Fprintf(w, "cores: %d, paper-scale: %v, seed: %d\n", runtime.GOMAXPROCS(0), paper, seed)
	fmt.Fprintf(w, "reference: Fukaya, Nakatsukasa, Yamamoto, IPDPS 2024\n\n")
	s := sizesFor(paper)
	section := ""
	for _, f := range figs {
		if f.section != section {
			section = f.section
			fmt.Fprintf(w, "%s\n%s\n", section, dashes(len(section)))
		}
		f.run(w, seed, s)
		fmt.Fprintln(w)
	}
	if traced {
		writeTraceSection(w, trace.Snapshot())
	}
	fmt.Fprintf(w, "total runtime: %v\n", time.Since(start).Round(time.Second))
}

// writeTraceSection renders the stage-level breakdown accumulated over the
// whole pipeline run (separated out so the output format is golden-tested).
func writeTraceSection(w io.Writer, rep trace.Report) {
	title := "stage-level trace breakdown (whole pipeline)"
	fmt.Fprintf(w, "%s\n%s\n", title, dashes(len(title)))
	if err := metrics.WriteBreakdown(w, rep); err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
	}
	fmt.Fprintln(w)
}

// stickyWriter passes writes through until the first error and refuses
// every write after it, keeping that error, so a report cut short by a
// full disk ends in a failure instead of a truncated file.
type stickyWriter struct {
	w   io.Writer
	err error
}

func (s *stickyWriter) Write(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	n, err := s.w.Write(p)
	s.err = err
	return n, err
}

func main() {
	var (
		fig    = flag.String("fig", "all", "the figure to regenerate (DESIGN.md §8), or all")
		paper  = flag.Bool("paper", false, "use the paper's full problem sizes (slow)")
		out    = flag.String("o", "", "write the report to this file instead of stdout")
		seed   = flag.Int64("seed", 1, "RNG seed")
		traced = flag.Bool("trace", false, "append a stage-level trace breakdown of the whole run")
	)
	flag.Parse()
	figs, err := selectFigures(*fig)
	if err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(2)
	}

	w := &stickyWriter{w: os.Stdout}
	var file *os.File
	if *out != "" {
		if file, err = os.Create(*out); err != nil {
			fmt.Fprintln(os.Stderr, "report:", err)
			os.Exit(1)
		}
		w.w = file
	}
	writeReport(w, figs, *seed, *paper, *traced)
	err = w.err
	if file != nil {
		if cerr := file.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}

func dashes(n int) string {
	return strings.Repeat("-", n)
}
