// Command trace-report runs one pivoted factorization under the
// internal/trace instrumentation and emits the stage-level breakdown:
// where the time went (Gram, CholCP, TRSM, Swap, Trmm, Fused — plus
// Sketch and Precond on the randomized path), the kernel-level nesting
// underneath, event counters (iterations, ε-exits, sketch fallbacks,
// workspace pool hits), and per-worker utilization.
//
// Usage:
//
//	go run ./cmd/trace-report -m 100000 -n 128            # JSON to stdout
//	go run ./cmd/trace-report -text                       # human-readable table
//	go run ./cmd/trace-report -algo hqrcp -text           # baseline breakdown
//	go run ./cmd/trace-report -algo cqrrpt -text          # randomized path
//	go run ./cmd/trace-report -cpuprofile cpu.out         # + pprof CPU profile
//	go run ./cmd/trace-report -pprof localhost:6060       # live pprof server
//
// The JSON output follows the shared schema of bench/SCHEMA.md: a config
// header, the raw trace snapshot, and the flattened metrics records.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"

	tsqrcp "repro"
	"repro/internal/trace"
	"repro/metrics"
	"repro/testmat"
)

// output is the self-contained JSON document trace-report writes.
type output struct {
	metrics.Header
	Config  config           `json:"config"`
	Trace   trace.Report     `json:"trace"`
	Records []metrics.Record `json:"records"`
}

type config struct {
	Algo  string  `json:"algo"`
	M     int     `json:"m"`
	N     int     `json:"n"`
	R     int     `json:"r"`
	Sigma float64 `json:"sigma"`
	Eps   float64 `json:"eps"`
	Reps  int     `json:"reps"`
	Seed  int64   `json:"seed"`
}

func main() {
	var (
		m          = flag.Int("m", 10000, "rows of the synthetic test matrix")
		n          = flag.Int("n", 64, "columns of the synthetic test matrix")
		r          = flag.Int("r", 0, "numerical rank of the test matrix (0: 4n/5)")
		sigma      = flag.Float64("sigma", 1e-12, "trailing singular value σ of the test matrix")
		eps        = flag.Float64("eps", tsqrcp.DefaultPivotTol, "P-Chol-CP pivot tolerance ε")
		algo       = flag.String("algo", "itecholqrcp", "algorithm: itecholqrcp, cqrrpt, or hqrcp")
		reps       = flag.Int("reps", 1, "number of factorizations to accumulate")
		seed       = flag.Int64("seed", 1, "RNG seed")
		out        = flag.String("o", "", "write JSON to this file instead of stdout")
		text       = flag.Bool("text", false, "print a human-readable table instead of JSON")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		rtracePath = flag.String("runtime-trace", "", "write a runtime/trace execution trace to this file")
	)
	flag.Parse()
	if *r == 0 {
		*r = (*n * 4) / 5
	}
	if *m < *n {
		fmt.Fprintf(os.Stderr, "trace-report: need a tall matrix (m ≥ n), got %d×%d\n", *m, *n)
		os.Exit(2)
	}

	stopProf, err := trace.StartProfiles(*pprofAddr, *cpuProfile, *rtracePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace-report:", err)
		os.Exit(2)
	}
	defer stopProf()

	rng := rand.New(rand.NewSource(*seed))
	a := testmat.Generate(rng, *m, *n, *r, *sigma)

	trace.Reset()
	trace.Enable()
	var fac *tsqrcp.Factorization
	for i := 0; i < *reps; i++ {
		switch *algo {
		case "itecholqrcp":
			fac, err = tsqrcp.QRCP(a, &tsqrcp.Options{PivotTol: *eps})
			if err != nil {
				fmt.Fprintln(os.Stderr, "trace-report:", err)
				os.Exit(1)
			}
		case "cqrrpt":
			fac, err = tsqrcp.QRCP(a, &tsqrcp.Options{
				PivotTol: *eps,
				Strategy: tsqrcp.StrategyCQRRPT,
				Seed:     uint64(*seed),
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "trace-report:", err)
				os.Exit(1)
			}
		case "hqrcp":
			fac = tsqrcp.HouseholderQRCP(a, nil)
		default:
			fmt.Fprintf(os.Stderr, "trace-report: unknown -algo %q (want itecholqrcp, cqrrpt, or hqrcp)\n", *algo)
			os.Exit(2)
		}
	}
	snap := trace.Snapshot()
	trace.Disable()

	name := "IteCholQRCP"
	switch *algo {
	case "hqrcp":
		name = "HQRCP"
	case "cqrrpt":
		name = "CQRRPT"
	}
	recs := metrics.TraceRecords(name, snap)
	recs = append(recs, metrics.AccuracyRecords(name,
		metrics.Orthogonality(fac.Q),
		metrics.Residual(a, fac.Q, fac.R, fac.Perm),
		metrics.CondR11(fac.R, *r),
		metrics.NormR22(fac.R, *r))...)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace-report:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	if *text {
		fmt.Fprintf(w, "%s m=%d n=%d r=%d σ=%g ε=%g reps=%d\n\n", name, *m, *n, *r, *sigma, *eps, *reps)
		if err := metrics.WriteBreakdown(w, snap); err != nil {
			fmt.Fprintln(os.Stderr, "trace-report:", err)
			os.Exit(1)
		}
		return
	}

	doc := output{
		Header: metrics.NewHeader(),
		Config: config{
			Algo: *algo, M: *m, N: *n, R: *r,
			Sigma: *sigma, Eps: *eps, Reps: *reps, Seed: *seed,
		},
		Trace:   snap,
		Records: recs,
	}
	buf, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace-report:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if _, err := w.Write(buf); err != nil {
		fmt.Fprintln(os.Stderr, "trace-report:", err)
		os.Exit(1)
	}
}
