// Command bench-check is the CI benchmark-regression gate: it validates a
// freshly produced BENCH_kernels.json against the schema of bench/SCHEMA.md
// and compares kernel throughput against the committed baseline, failing
// (exit 1) when any kernel's GFLOP/s drops by more than the tolerance.
//
// Usage:
//
//	go run ./cmd/bench-check -baseline BENCH_kernels.json -candidate new.json
//	BENCH_TOLERANCE=0.40 go run ./cmd/bench-check ...   # looser gate
//
// Rows are matched by (name, stage, m, n). Batch rows (QRCPBatch) are
// compared on problems/sec; rows with flop attribution are
// compared on GFLOP/s (machine-load robust); the remaining flop-less rows
// (end-to-end entries, Swap stages) are compared on ns/op, and only when the baseline
// is at least 1 ms — sub-millisecond timings are noise on shared CI
// runners. Schema versions must match exactly; a candidate produced by a
// newer tool against an older baseline is a hard error, not a skip.
//
// Beyond the relative baseline comparison, the randomized CQRRPT path has
// two absolute acceptance gates, enforced on the candidate alone: the
// CQRRPT/IteCholQRCP end-to-end pair at the reference shape must show at
// least a 1.3× wall-clock speedup, and the CQRRPTParity metric rows must
// sit within the metrics.CQRRPT*Tol accuracy thresholds. A candidate
// missing those rows fails — the speedup claim is only admissible with
// its accuracy certificate attached.
//
// The service layer has the analogous absolute gate: the ServiceQRCP
// rows (cmd/bench-kernels) at the smoke shape must be present, show at
// least serviceMinJobsPerSec jobs/sec end to end, and carry a coherent
// latency distribution (0 < p50 ≤ p99).
//
// The traced end-to-end rows have a coverage gate: for every CQRRPT and
// IteCholQRCP stage Total, the other stage rows of the same run must add
// up to at least minStageCoverage of it, so no part of the run goes
// unattributed.
//
// The n×n tail has a share gate on the baseline: in every traced
// IteCholQRCP run at n = 256 it records, the CholCP and Trmm stage rows
// together must stay within 15% of its Total, so the replicated n×n
// work cannot creep back to the scalar loops' 36% in a refreshed
// baseline. It reads the baseline, whose shape and host the bound was
// measured on, and not the CI candidate: the tail runs mostly on one
// core while the sweeps scale with the runner's cores, so the share
// there depends on the runner.
//
// The out-of-core path has one too: the OOCQRCP rows must be present
// with a positive gbps (input bytes factored per ns), and the PrefetchStallFraction metric
// row must sit below 0.5 — the prefetch pipeline hiding at least half
// of the disk time behind compute.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"

	"repro/metrics"
)

type key struct {
	name, stage string
	m, n        int
}

// minCompareNs: ns-only rows below this baseline duration are skipped —
// they are dominated by timer and scheduler noise on CI runners.
const minCompareNs = 1e6

// validate checks the structural invariants the schema documents.
func validate(path string, rep *metrics.File) []string {
	var errs []string
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf("%s: %s", path, fmt.Sprintf(format, args...)))
	}
	if rep.Schema != metrics.SchemaVersion {
		bad("schema %q, want %q", rep.Schema, metrics.SchemaVersion)
	}
	if len(rep.Records) == 0 {
		bad("no records")
	}
	seen := make(map[key]bool, len(rep.Records))
	for i, r := range rep.Records {
		switch {
		case r.Name == "":
			bad("record %d: empty name", i)
		case r.M <= 0 || r.N <= 0:
			bad("record %d (%s): non-positive shape %dx%d", i, r.Name, r.M, r.N)
		case r.Unit != "":
			// Metric rows have no timing; their Value must be a usable
			// measurement (NaN would silently pass every < comparison).
			if math.IsNaN(r.Value) || r.Value < 0 {
				bad("record %d (%s/%s): metric value %g not a non-negative number",
					i, r.Name, r.Stage, r.Value)
			}
		case r.NsPerOp <= 0:
			bad("record %d (%s): non-positive ns_per_op %g", i, r.Name, r.NsPerOp)
		case r.GFLOPS < 0:
			bad("record %d (%s): negative gflops", i, r.Name)
		case r.Gbps < 0:
			bad("record %d (%s): negative gbps", i, r.Name)
		case r.ProblemsPerSec < 0:
			bad("record %d (%s): negative problems_per_sec", i, r.Name)
		}
		k := key{r.Name, r.Stage, r.M, r.N}
		if seen[k] {
			bad("duplicate row %+v", k)
		}
		seen[k] = true
	}
	return errs
}

func tolerance() (float64, error) {
	env := os.Getenv("BENCH_TOLERANCE")
	if env == "" {
		return 0.25, nil
	}
	tol, err := strconv.ParseFloat(env, 64)
	if err != nil || tol <= 0 || tol >= 1 {
		return 0, fmt.Errorf("BENCH_TOLERANCE=%q: want a fraction in (0,1)", env)
	}
	return tol, nil
}

// compare returns one message per regression and the number of row pairs
// actually gated.
func compare(base, cand *metrics.File, tol float64) (regressions []string, compared int) {
	idx := make(map[key]metrics.Record, len(base.Records))
	for _, r := range base.Records {
		idx[key{r.Name, r.Stage, r.M, r.N}] = r
	}
	for _, c := range cand.Records {
		b, ok := idx[key{c.Name, c.Stage, c.M, c.N}]
		if !ok {
			continue
		}
		label := c.Name
		if c.Stage != "" {
			label += "/" + c.Stage
		}
		label = fmt.Sprintf("%s m=%d n=%d", label, c.M, c.N)
		switch {
		case b.ProblemsPerSec > 0 && c.ProblemsPerSec > 0:
			compared++
			if c.ProblemsPerSec < b.ProblemsPerSec*(1-tol) {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %.1f problems/s vs baseline %.1f (-%.0f%%, tolerance %.0f%%)",
					label, c.ProblemsPerSec, b.ProblemsPerSec,
					100*(1-c.ProblemsPerSec/b.ProblemsPerSec), 100*tol))
			}
		case b.GFLOPS > 0 && c.GFLOPS > 0:
			compared++
			if c.GFLOPS < b.GFLOPS*(1-tol) {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %.2f GFLOP/s vs baseline %.2f (-%.0f%%, tolerance %.0f%%)",
					label, c.GFLOPS, b.GFLOPS, 100*(1-c.GFLOPS/b.GFLOPS), 100*tol))
			}
		case b.NsPerOp >= minCompareNs:
			compared++
			if c.NsPerOp > b.NsPerOp*(1+tol) {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %.0f ns/op vs baseline %.0f (+%.0f%%, tolerance %.0f%%)",
					label, c.NsPerOp, b.NsPerOp, 100*(c.NsPerOp/b.NsPerOp-1), 100*tol))
			}
		}
	}
	return regressions, compared
}

// The absolute acceptance gates of the randomized path (ROADMAP: CQRRPT
// must beat the fused iterated baseline without giving up accuracy). The
// reference shape matches the fixed A/B pair cmd/bench-kernels emits.
const (
	cqrrptGateM      = 1_000_000
	cqrrptGateN      = 64
	cqrrptMinSpeedup = 1.3
)

// cqrrptGates checks the absolute CQRRPT acceptance criteria on one
// report: wall-clock speedup over the iterated baseline at the reference
// shape, and the accuracy parity certificate. Returns one message per
// violation; missing rows are violations, not skips.
func cqrrptGates(path string, rep *metrics.File) []string {
	var errs []string
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf("%s: %s", path, fmt.Sprintf(format, args...)))
	}
	var cq, ite *metrics.Record
	parity := make(map[string]float64)
	for i, r := range rep.Records {
		switch {
		case r.Name == "CQRRPT" && r.Stage == "" && r.M == cqrrptGateM && r.N == cqrrptGateN:
			cq = &rep.Records[i]
		case r.Name == "IteCholQRCP" && r.Stage == "" && r.M == cqrrptGateM && r.N == cqrrptGateN:
			ite = &rep.Records[i]
		case r.Name == "CQRRPTParity" && r.Unit != "":
			parity[r.Stage] = r.Value
		}
	}
	if cq == nil || ite == nil {
		bad("missing CQRRPT/IteCholQRCP pair at m=%d n=%d", cqrrptGateM, cqrrptGateN)
	} else if speedup := ite.NsPerOp / cq.NsPerOp; speedup < cqrrptMinSpeedup {
		bad("CQRRPT speedup %.2fx at m=%d n=%d below required %.2fx",
			speedup, cqrrptGateM, cqrrptGateN, cqrrptMinSpeedup)
	}
	orth, okO := parity["orthogonality"]
	resid, okR := parity["residual"]
	pq, okP := parity["pivot_quality"]
	if !okO || !okR || !okP {
		bad("missing CQRRPTParity metric rows (have %d of 3)", len(parity))
		return errs
	}
	for _, v := range metrics.ParityViolations(orth, resid, pq) {
		bad("CQRRPT parity: %s", v)
	}
	return errs
}

// The absolute acceptance gate of the service layer (ROADMAP: the
// network front door must not squander the engine's batch throughput).
// The gate shape is the first service shape cmd/bench-kernels drives — the
// smoke preset — and the jobs/sec floor is deliberately conservative:
// it catches a serialization bug (batching disabled, one dispatch per
// job, a lock convoy on the admission path), not machine variance.
const (
	serviceGateM         = 1000
	serviceGateN         = 32
	serviceMinJobsPerSec = 10.0
)

// serviceGates checks the absolute service-layer acceptance criteria on
// one report: the ServiceQRCP throughput row at the gate shape must meet
// the jobs/sec floor, and the latency quantile rows must exist and be
// coherent (0 < p50 ≤ p99). Returns one message per violation; missing
// rows are violations, not skips — a throughput claim without its
// latency distribution attached is not admissible.
func serviceGates(path string, rep *metrics.File) []string {
	var errs []string
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf("%s: %s", path, fmt.Sprintf(format, args...)))
	}
	var thr, p50, p99 *metrics.Record
	for i, r := range rep.Records {
		if r.Name != "ServiceQRCP" || r.M != serviceGateM || r.N != serviceGateN {
			continue
		}
		switch r.Stage {
		case "":
			thr = &rep.Records[i]
		case "latency_p50":
			p50 = &rep.Records[i]
		case "latency_p99":
			p99 = &rep.Records[i]
		}
	}
	if thr == nil {
		bad("missing ServiceQRCP throughput row at m=%d n=%d", serviceGateM, serviceGateN)
	} else if thr.ProblemsPerSec < serviceMinJobsPerSec {
		bad("ServiceQRCP %.1f jobs/s at m=%d n=%d below required %.1f",
			thr.ProblemsPerSec, serviceGateM, serviceGateN, serviceMinJobsPerSec)
	}
	if p50 == nil || p99 == nil {
		bad("missing ServiceQRCP latency_p50/latency_p99 rows at m=%d n=%d", serviceGateM, serviceGateN)
	} else if !(p50.NsPerOp > 0 && p50.NsPerOp <= p99.NsPerOp) {
		bad("ServiceQRCP latency quantiles incoherent: p50 %.0f ns, p99 %.0f ns (want 0 < p50 ≤ p99)",
			p50.NsPerOp, p99.NsPerOp)
	}
	return errs
}

// minStageCoverage is the share of a traced run's Total that its stage
// rows must cover.
const minStageCoverage = 0.90

// coverageGates checks every CQRRPT and IteCholQRCP stage Total row of
// one report: the stage rows of the same (name, m, n) must sum to at
// least minStageCoverage of it. Returns one message per violation.
func coverageGates(path string, rep *metrics.File) []string {
	type run struct {
		name string
		m, n int
	}
	covered := make(map[run]float64)
	for _, r := range rep.Records {
		if r.Stage != "" && r.Stage != "Total" && r.Unit == "" {
			covered[run{r.Name, r.M, r.N}] += r.NsPerOp
		}
	}
	var errs []string
	for _, r := range rep.Records {
		if r.Stage != "Total" || (r.Name != "CQRRPT" && r.Name != "IteCholQRCP") {
			continue
		}
		if share := covered[run{r.Name, r.M, r.N}] / r.NsPerOp; !(share >= minStageCoverage) {
			errs = append(errs, fmt.Sprintf("%s: %s m=%d n=%d: stage rows cover %.1f%% of Total, want at least %.0f%%",
				path, r.Name, r.M, r.N, 100*share, 100*minStageCoverage))
		}
	}
	return errs
}

// The n×n tail gate: CholCP + Trmm against Total in the traced
// IteCholQRCP runs at tailGateN columns, where the n×n work that every
// distributed rank repeats weighs most.
const (
	tailGateN    = 256
	tailMaxShare = 0.15
)

// tailGates checks every traced IteCholQRCP run at n = tailGateN in one
// report: its CholCP and Trmm stage rows must add up to at most
// tailMaxShare of its Total. Returns one message per violation; a
// report without such a run has nothing to gate.
func tailGates(path string, rep *metrics.File) []string {
	tail := make(map[int]float64)
	for _, r := range rep.Records {
		if r.Name == "IteCholQRCP" && r.N == tailGateN && r.Unit == "" && (r.Stage == "CholCP" || r.Stage == "Trmm") {
			tail[r.M] += r.NsPerOp
		}
	}
	var errs []string
	for _, r := range rep.Records {
		if r.Name != "IteCholQRCP" || r.N != tailGateN || r.Stage != "Total" {
			continue
		}
		if share := tail[r.M] / r.NsPerOp; !(share <= tailMaxShare) {
			errs = append(errs, fmt.Sprintf("%s: %s m=%d n=%d: CholCP + Trmm take %.1f%% of Total, want at most %.0f%%",
				path, r.Name, r.M, r.N, 100*share, 100*tailMaxShare))
		}
	}
	return errs
}

// The absolute acceptance gate of the out-of-core path (ISSUE 10: the
// prefetch pipeline must actually overlap I/O with compute). The gate
// shape matches the fixed OOCQRCP pair cmd/bench-kernels emits, and the
// stall-fraction ceiling is the acceptance criterion: the compute side
// blocked waiting on disk for less than half the wall-clock.
const (
	oocGateM            = 200_000
	oocGateN            = 64
	oocMaxStallFraction = 0.5
)

// oocGates checks the out-of-core acceptance criteria on one report:
// the OOCQRCP streaming row must be present with a positive gbps, and
// its PrefetchStallFraction metric row must sit under the ceiling.
// Missing rows are violations, not skips.
func oocGates(path string, rep *metrics.File) []string {
	var errs []string
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf("%s: %s", path, fmt.Sprintf(format, args...)))
	}
	var thr, stall *metrics.Record
	for i, r := range rep.Records {
		if r.Name != "OOCQRCP" || r.M != oocGateM || r.N != oocGateN {
			continue
		}
		switch r.Stage {
		case "":
			thr = &rep.Records[i]
		case "PrefetchStallFraction":
			stall = &rep.Records[i]
		}
	}
	if thr == nil {
		bad("missing OOCQRCP streaming row at m=%d n=%d", oocGateM, oocGateN)
	} else if thr.Gbps <= 0 {
		bad("OOCQRCP at m=%d n=%d: non-positive gbps %g", oocGateM, oocGateN, thr.Gbps)
	}
	if stall == nil {
		bad("missing OOCQRCP PrefetchStallFraction row at m=%d n=%d", oocGateM, oocGateN)
	} else if stall.Value >= oocMaxStallFraction {
		bad("OOCQRCP prefetch-stall fraction %.3f at m=%d n=%d at or above the %.2f ceiling — the pipeline is not hiding the disk",
			stall.Value, oocGateM, oocGateN, oocMaxStallFraction)
	}
	return errs
}

func main() {
	baseline := flag.String("baseline", "BENCH_kernels.json", "committed baseline JSON")
	candidate := flag.String("candidate", "", "freshly produced JSON to gate (required)")
	flag.Parse()
	if *candidate == "" {
		fmt.Fprintln(os.Stderr, "bench-check: -candidate is required")
		os.Exit(2)
	}
	tol, err := tolerance()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-check:", err)
		os.Exit(2)
	}

	base, err := metrics.LoadFile(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-check:", err)
		os.Exit(2)
	}
	cand, err := metrics.LoadFile(*candidate)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-check:", err)
		os.Exit(2)
	}

	var fatal bool
	for _, msg := range append(validate(*baseline, base), validate(*candidate, cand)...) {
		fmt.Fprintln(os.Stderr, "bench-check: schema:", msg)
		fatal = true
	}
	if fatal {
		os.Exit(1)
	}

	// Absolute CQRRPT gates on the candidate: the fresh run must prove the
	// randomized path's speedup and accuracy parity, whatever the baseline
	// recorded.
	for _, msg := range cqrrptGates(*candidate, cand) {
		fmt.Fprintln(os.Stderr, "bench-check: gate:", msg)
		fatal = true
	}
	// And the absolute service-layer gate: the served jobs/sec floor with
	// a coherent latency distribution attached.
	for _, msg := range serviceGates(*candidate, cand) {
		fmt.Fprintln(os.Stderr, "bench-check: gate:", msg)
		fatal = true
	}
	// The n×n tail gate, on the baseline: CholCP + Trmm within 15% of
	// the traced IteCholQRCP Total at n = 256.
	for _, msg := range tailGates(*baseline, base) {
		fmt.Fprintln(os.Stderr, "bench-check: gate:", msg)
		fatal = true
	}
	// The out-of-core gate: streamed GB/s present and the prefetch
	// pipeline hiding at least half of the disk time.
	for _, msg := range oocGates(*candidate, cand) {
		fmt.Fprintln(os.Stderr, "bench-check: gate:", msg)
		fatal = true
	}
	// The coverage gate: the traced CQRRPT and IteCholQRCP runs leave
	// less than a tenth of their Total outside the stage rows.
	for _, msg := range coverageGates(*candidate, cand) {
		fmt.Fprintln(os.Stderr, "bench-check: gate:", msg)
		fatal = true
	}
	if fatal {
		os.Exit(1)
	}

	regressions, compared := compare(base, cand, tol)
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "bench-check: no comparable rows between baseline and candidate")
		os.Exit(1)
	}
	for _, msg := range regressions {
		fmt.Fprintln(os.Stderr, "bench-check: REGRESSION:", msg)
	}
	if len(regressions) > 0 {
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench-check: OK — %d rows within %.0f%% of baseline\n", compared, 100*tol)
}
