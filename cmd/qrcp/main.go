// Command qrcp computes a QR factorization with column pivoting of a
// tall-skinny matrix — either a synthetic test matrix (paper §IV-A3) or a
// whitespace-separated dense matrix read from a file — and reports the
// accuracy metrics of the paper's evaluation.
//
// Usage:
//
//	qrcp -m 10000 -n 50 -r 40 -sigma 1e-12            # synthetic
//	qrcp -in matrix.txt                               # from file
//	qrcp -m 4000 -n 64 -r 50 -method hqrcp            # baseline
//	qrcp -m 4000 -n 64 -method cqrrpt -trace          # stage breakdown
//	qrcp -m 4000 -n 64 -r 50 -truncate 10             # low-rank
//	qrcp -file big.tsqrmat -panel-rows 0              # out of core
//
// -file streams a binary matrix (see cmd/matconv) through the
// out-of-core path instead of loading it: the resident set is two row
// panels plus n×n state, so it factorizes datasets bigger than RAM.
//
// -trace prints where the time went after the run: the stage rows
// (Gram, CholCP, TRSM, Swap, Trmm, Fused, plus Sketch and Precond on
// the CQRRPT path), the kernel rows nested inside them, the event
// counters and per-worker utilization. -cpuprofile writes a pprof CPU
// profile of the whole run.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	tsqrcp "repro"
	"repro/internal/trace"
	"repro/mat"
	"repro/metrics"
	"repro/testmat"
)

func main() {
	var (
		m          = flag.Int("m", 10000, "rows of the synthetic test matrix")
		n          = flag.Int("n", 50, "columns of the synthetic test matrix")
		r          = flag.Int("r", 0, "numerical rank of the synthetic test matrix, 0 = 4n/5")
		sigma      = flag.Float64("sigma", 1e-12, "smallest leading singular value (κ₂ = 1/σ)")
		seed       = flag.Int64("seed", 1, "RNG seed")
		in         = flag.String("in", "", "read the matrix from this file instead of generating one")
		method     = flag.String("method", "ite", "algorithm: ite (Ite-CholQR-CP), cqrrpt (sketch-preconditioned CQRRPT) or hqrcp (Householder)")
		eps        = flag.Float64("eps", tsqrcp.DefaultPivotTol, "P-Chol-CP pivot tolerance ε")
		truncate   = flag.Int("truncate", 0, "if > 0, compute a rank-k truncated factorization")
		out        = flag.String("out", "", "write factors to <out>.Q.txt, <out>.R.txt, <out>.perm.txt")
		file       = flag.String("file", "", "factor this binary matrix file out of core (streaming; see cmd/matconv)")
		panelRows  = flag.Int("panel-rows", 0, "out-of-core resident panel height; 0 sizes the two panel buffers at 32 MiB together")
		qOut       = flag.String("q-out", "", "out-of-core only: stream Q to this binary file (omitted ⇒ Q is never materialized)")
		scratchDir = flag.String("scratch-dir", "", "out-of-core only: directory for the working scratch file (default: OS temp dir)")
		traced     = flag.Bool("trace", false, "print the stage and kernel time breakdown after the run")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	)
	flag.Parse()
	switch *method {
	case "ite", "cqrrpt", "hqrcp":
	default:
		fmt.Fprintf(os.Stderr, "qrcp: unknown -method %q (want ite, cqrrpt or hqrcp)\n", *method)
		os.Exit(2)
	}
	if *in == "" && *file == "" {
		if *r == 0 {
			*r = 4 * *n / 5
		}
		if *r < 1 || *r > *n {
			fmt.Fprintf(os.Stderr, "qrcp: rank -r %d outside [1,%d]\n", *r, *n)
			flag.Usage()
			os.Exit(2)
		}
	}
	stopProf, err := trace.StartProfiles(*cpuProfile, "")
	if err != nil {
		fmt.Fprintf(os.Stderr, "qrcp: %v\n", err)
		os.Exit(2)
	}
	defer stopProf()

	if *file != "" {
		runFile(*file, *eps, *panelRows, *qOut, *scratchDir, *traced)
		return
	}

	var a *mat.Dense
	if *in != "" {
		a, err = mat.ReadFile(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qrcp: %v\n", err)
			os.Exit(1)
		}
	} else {
		rng := rand.New(rand.NewSource(*seed))
		a = testmat.Generate(rng, *m, *n, *r, *sigma)
		fmt.Printf("generated %d×%d test matrix, numerical rank %d, κ₂ = %.1e\n", *m, *n, *r, 1 / *sigma)
	}

	opts := &tsqrcp.Options{PivotTol: *eps}
	if *method == "cqrrpt" {
		opts.Strategy, opts.Seed = tsqrcp.StrategyCQRRPT, uint64(*seed)
	}
	if *traced {
		trace.Reset()
		trace.Enable()
	}
	start := time.Now()
	var f *tsqrcp.Factorization
	switch {
	case *truncate > 0:
		f, err = tsqrcp.QRCPTruncated(a, *truncate, opts)
	case *method == "hqrcp":
		f = tsqrcp.HouseholderQRCP(a, opts)
	default:
		f, err = tsqrcp.QRCP(a, opts)
	}
	elapsed := time.Since(start)
	rep := trace.Snapshot()
	trace.Disable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "qrcp: %v\n", err)
		os.Exit(1)
	}
	if *truncate > 0 {
		fmt.Printf("rank-%d truncated QRCP in %v (%d iterations)\n", f.Rank, elapsed, f.Iterations)
		fmt.Printf("orthogonality ‖QᵀQ−I‖_F/√k : %.2e\n", metrics.Orthogonality(f.Q))
		approx := f.Reconstruct()
		diff := a.Clone()
		for i := range diff.Data {
			diff.Data[i] -= approx.Data[i]
		}
		fmt.Printf("approx error ‖A−Ã‖_F/‖A‖_F : %.2e\n", diff.FrobeniusNorm()/a.FrobeniusNorm())
	} else {
		report(a, f, elapsed)
		writeFactors(*out, f)
	}
	if *traced {
		printBreakdown(rep)
	}
}

// runFile is the out-of-core mode: the matrix stays on disk and the
// factorization streams it panel by panel (tsqrcp.QRCPFile), reporting
// the disk-side trace counters instead of the in-memory accuracy
// metrics (computing those would require materializing A and Q — the
// thing this mode exists to avoid).
func runFile(path string, eps float64, panelRows int, qOut, scratchDir string, traced bool) {
	trace.Reset()
	trace.Enable()
	start := time.Now()
	f, err := tsqrcp.QRCPFile(path, &tsqrcp.FileOptions{
		Options:    tsqrcp.Options{PivotTol: eps},
		PanelRows:  panelRows,
		QPath:      qOut,
		ScratchDir: scratchDir,
	})
	elapsed := time.Since(start)
	trace.Disable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "qrcp: %v\n", err)
		os.Exit(1)
	}
	rep := trace.Snapshot()
	read := rep.Counters["ooc_bytes_read"]
	stallNs := rep.Counters["ooc_prefetch_stall_ns"]
	fmt.Printf("out-of-core QRCP of %s in %v (%d pivoting iterations + reorthogonalization)\n",
		path, elapsed, f.Iterations)
	fmt.Printf("streamed                    : %d MiB read in %d panels (%.2f GB/s)\n",
		read>>20, rep.Counters["ooc_panels_read"], float64(read)/float64(elapsed.Nanoseconds()+1))
	fmt.Printf("prefetch stalls             : %d (%.1f%% of wall-clock)\n",
		rep.Counters["ooc_prefetch_stalls"], 100*float64(stallNs)/float64(elapsed.Nanoseconds()+1))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// HeapSys is the heap footprint obtained from the OS over the whole
	// run — the figure the e2e-ooc CI gate compares against the size of
	// the matrix to prove it was never materialized.
	fmt.Printf("peak heap                   : %d MiB\n", ms.HeapSys>>20)
	fmt.Printf("estimated numerical rank    : %d\n", f.NumericalRank(0))
	show := len(f.Perm)
	if show > 16 {
		show = 16
	}
	fmt.Printf("first pivots                : %v\n", f.Perm[:show])
	if qOut != "" {
		fmt.Printf("Q streamed to               : %s\n", qOut)
	}
	if traced {
		printBreakdown(rep)
	}
}

// printBreakdown prints a traced run's stage and kernel table.
func printBreakdown(rep trace.Report) {
	fmt.Println()
	if err := metrics.WriteBreakdown(os.Stdout, rep); err != nil {
		fmt.Fprintf(os.Stderr, "qrcp: %v\n", err)
		os.Exit(1)
	}
}

// writeFactors dumps Q, R and the permutation as text files when -out is set.
func writeFactors(prefix string, f *tsqrcp.Factorization) {
	if prefix == "" {
		return
	}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "qrcp: writing factors: %v\n", err)
		os.Exit(1)
	}
	if err := f.Q.WriteFile(prefix + ".Q.txt"); err != nil {
		fail(err)
	}
	if err := f.R.WriteFile(prefix + ".R.txt"); err != nil {
		fail(err)
	}
	pf, err := os.Create(prefix + ".perm.txt")
	if err != nil {
		fail(err)
	}
	for _, p := range f.Perm {
		fmt.Fprintln(pf, p)
	}
	if err := pf.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("factors written to %s.{Q,R,perm}.txt\n", prefix)
}

func report(a *mat.Dense, f *tsqrcp.Factorization, elapsed time.Duration) {
	fmt.Printf("QRCP of %d×%d matrix in %v", a.Rows, a.Cols, elapsed)
	if f.Iterations > 0 {
		fmt.Printf(" (%d pivoting iterations + reorthogonalization)", f.Iterations)
	}
	fmt.Println()
	fmt.Printf("orthogonality ‖QᵀQ−I‖_F/√n : %.2e\n", metrics.Orthogonality(f.Q))
	fmt.Printf("residual ‖AΠ−QR‖_F/‖A‖_F   : %.2e\n", metrics.Residual(a, f.Q, f.R, f.Perm))
	k := f.NumericalRank(0)
	fmt.Printf("estimated numerical rank    : %d\n", k)
	if k > 0 && k <= 256 { // Jacobi SVD cost guard
		fmt.Printf("κ₂(R₁₁)                    : %.2e\n", metrics.CondR11(f.R, k))
		fmt.Printf("‖R₂₂‖₂                     : %.2e\n", metrics.NormR22(f.R, k))
	}
	show := len(f.Perm)
	if show > 16 {
		show = 16
	}
	fmt.Printf("first pivots                : %v\n", f.Perm[:show])
}
