package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/trace"
)

// SchemaVersion identifies the shared record layout emitted by the bench
// and report tools. Bump it whenever a field is added, renamed, or its
// meaning changes; cmd/bench-check refuses to compare across versions.
const SchemaVersion = "repro-metrics/11"

// Record is the one row shape for everything the repo measures: the
// rows of BENCH_kernels.json (bench/SCHEMA.md), timed whole-run, stage
// and kernel rows and metric rows such as the parity records of this
// package. Every field
// past Stage is omitted from JSON when zero, so each kind of row writes
// only the fields it sets, and a missing field reads back as zero.
type Record struct {
	// Name identifies what was measured, e.g. "IteCholQRCP" or
	// "orthogonality".
	Name string `json:"name"`
	// Stage is set on timing rows that attribute part of a run to one
	// algorithm stage (Gram, CholCP, TRSM, Swap, Trmm, Allreduce) or to a
	// kernel (kernel/gemm, ...), and on metric rows to name the metric.
	// Empty for whole-run rows.
	Stage string `json:"stage,omitempty"`
	// M and N are the problem shape (rows × columns) of a bench row.
	M int `json:"m,omitempty"`
	N int `json:"n,omitempty"`
	// Iters is the testing.B iteration count of a bench row, or the
	// number of runs behind a stage or out-of-core row.
	Iters int `json:"iters,omitempty"`
	// NsPerOp, BytesPerOp and AllocsPerOp are a timed bench row's wall
	// time, allocated bytes and allocations per operation.
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// GFLOPS is the attributed flop rate of a bench row.
	GFLOPS float64 `json:"gflops,omitempty"`
	// Gbps is the effective traffic rate (bytes per nanosecond ≡ GB/s)
	// of the memory-bound and streaming rows.
	Gbps float64 `json:"gbps,omitempty"`
	// ProblemsPerSec is the throughput of the batch and service rows.
	ProblemsPerSec float64 `json:"problems_per_sec,omitempty"`
	// Value is the measurement in Unit.
	Value float64 `json:"value,omitempty"`
	// Unit is the measurement unit. In a bench File a row with a Unit is
	// a metric row ("ratio", "GFLOP/s"), one without a timed row.
	Unit string `json:"unit,omitempty"`
	// PctPeak is the executed flop rate of a Level-3 kernel row as a
	// percentage of the FMAPeak row times GOMAXPROCS.
	PctPeak float64 `json:"pct_peak,omitempty"`
}

// Header stamps a document the bench tools write with the schema
// version and the run's date, Go version and GOMAXPROCS.
type Header struct {
	Schema     string `json:"schema"`
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// NewHeader returns the header of a run starting now.
func NewHeader() Header {
	return Header{
		Schema:     SchemaVersion,
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// File is one BENCH_kernels.json document: a header and its rows.
type File struct {
	Header
	Records []Record `json:"records"`
}

// LoadFile reads a File from path. A field the schema does not declare
// is an error, so a writer and a reader of the format cannot drift apart
// unnoticed.
func LoadFile(path string) (*File, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// Write writes f to path as indented JSON.
func (f *File) Write(path string) error {
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
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
