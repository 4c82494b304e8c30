package metrics

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/trace"
)

// SchemaVersion identifies the shared record layout emitted by the bench
// and report tools. Bump it whenever a field is added, renamed, or its
// meaning changes; cmd/bench-check refuses to compare across versions.
const SchemaVersion = "repro-metrics/10"

// Record is the one unified row shape for everything the repo measures:
// timing breakdowns from internal/trace and accuracy metrics from this
// package share it, so downstream tooling (cmd/bench-check, plot scripts)
// parses a single schema.
type Record struct {
	// Name identifies what was measured, e.g. "IteCholQRCP" or
	// "orthogonality".
	Name string `json:"name"`
	// Stage is set on timing rows that attribute part of a run to one
	// algorithm stage (Gram, CholCP, TRSM, Swap, Trmm, Allreduce) or to a
	// kernel (kernel/gemm, ...). Empty for whole-run and accuracy rows.
	Stage string `json:"stage,omitempty"`
	// Value is the measurement in Unit.
	Value float64 `json:"value"`
	// Unit is the measurement unit: "ns", "gflops", "count", "bytes", or
	// "" for dimensionless accuracy ratios.
	Unit string `json:"unit,omitempty"`
}

// TraceRecords flattens a trace snapshot into the shared Record schema:
// one "ns" row per stage/kernel with attributed time, one "gflops" row per
// stage with flop attribution, and one "count" row per counter.
func TraceRecords(name string, r trace.Report) []Record {
	var out []Record
	for _, s := range r.Stages {
		out = append(out, Record{Name: name, Stage: s.Stage, Value: float64(s.TotalNs), Unit: "ns"})
		if s.GFLOPS > 0 {
			out = append(out, Record{Name: name, Stage: s.Stage, Value: s.GFLOPS, Unit: "gflops"})
		}
		if s.Bytes > 0 {
			out = append(out, Record{Name: name, Stage: s.Stage, Value: float64(s.Bytes), Unit: "bytes"})
		}
	}
	ctrs := make([]string, 0, len(r.Counters))
	for c := range r.Counters {
		ctrs = append(ctrs, c)
	}
	sort.Strings(ctrs)
	for _, c := range ctrs {
		out = append(out, Record{Name: name, Stage: c, Value: float64(r.Counters[c]), Unit: "count"})
	}
	return out
}

// AccuracyRecords wraps the paper's accuracy metrics (§IV-B) in the shared
// Record schema. Pass NaN for a metric that was not computed; it is
// skipped.
func AccuracyRecords(name string, orth, resid, condR11, normR22 float64) []Record {
	var out []Record
	add := func(metric string, v float64) {
		if v == v { // skip NaN
			out = append(out, Record{Name: name, Stage: metric, Value: v})
		}
	}
	add("orthogonality", orth)
	add("residual", resid)
	add("cond_r11", condR11)
	add("norm_r22", normR22)
	return out
}

// WriteBreakdown renders a trace snapshot as a human-readable stage table:
// algorithm stages first (they sum to ≈ the Total row), then kernels
// (nested inside the stages, so not additive with them), then counters.
func WriteBreakdown(w io.Writer, r trace.Report) error {
	if !r.Enabled {
		_, err := fmt.Fprintln(w, "tracing disabled (run with -trace)")
		return err
	}
	wall := float64(r.WallNs)
	if wall <= 0 {
		wall = 1
	}
	if _, err := fmt.Fprintf(w, "%-16s %10s %8s %7s %9s\n", "stage", "time", "calls", "%wall", "GFLOP/s"); err != nil {
		return err
	}
	write := func(s trace.StageStats) error {
		gf := ""
		if s.GFLOPS > 0 {
			gf = fmt.Sprintf("%9.2f", s.GFLOPS)
		}
		_, err := fmt.Fprintf(w, "%-16s %9.3fms %8d %6.1f%% %9s\n",
			s.Stage, float64(s.TotalNs)/1e6, s.Count, 100*float64(s.TotalNs)/wall, gf)
		return err
	}
	for _, s := range r.Stages {
		if s.Kernel {
			continue
		}
		if err := write(s); err != nil {
			return err
		}
	}
	for _, s := range r.Stages {
		if !s.Kernel {
			continue
		}
		if err := write(s); err != nil {
			return err
		}
	}
	ctrs := make([]string, 0, len(r.Counters))
	for c := range r.Counters {
		ctrs = append(ctrs, c)
	}
	sort.Strings(ctrs)
	for _, c := range ctrs {
		if _, err := fmt.Fprintf(w, "%-24s %12d\n", c, r.Counters[c]); err != nil {
			return err
		}
	}
	for _, ws := range r.Workers {
		if _, err := fmt.Fprintf(w, "worker %-3d busy %9.3fms  util %5.1f%%\n",
			ws.Worker, float64(ws.BusyNs)/1e6, 100*ws.Utilization); err != nil {
			return err
		}
	}
	return nil
}
