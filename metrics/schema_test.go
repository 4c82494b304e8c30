package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sampleReport is a fixed trace snapshot so the golden output is
// deterministic (a live Snapshot would embed real timings).
func sampleReport() trace.Report {
	return trace.Report{
		Enabled: true,
		WallNs:  2_000_000,
		Stages: []trace.StageStats{
			{Stage: "Gram", Count: 3, TotalNs: 1_000_000, Flops: 2_000_000, GFLOPS: 2},
			{Stage: "CholCP", Count: 3, TotalNs: 300_000},
			{Stage: "TRSM", Count: 3, TotalNs: 500_000, Flops: 1_000_000, GFLOPS: 2},
			{Stage: "Swap", Count: 3, TotalNs: 50_000},
			{Stage: "Allreduce", Count: 3, TotalNs: 100_000, Bytes: 98304},
			{Stage: "kernel/syrk", Kernel: true, Count: 3, TotalNs: 900_000, Flops: 1_900_000, GFLOPS: 2.111},
		},
		Counters: map[string]int64{
			"iterations":   3,
			"pivots_fixed": 64,
		},
		Workers: []trace.WorkerStats{
			{Worker: 0, BusyNs: 1_500_000, Utilization: 0.75},
		},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestTraceRecordsGolden(t *testing.T) {
	recs := TraceRecords("IteCholQRCP", sampleReport())
	out, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace_records.json", append(out, '\n'))
}

func TestWriteBreakdownGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBreakdown(&buf, sampleReport()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "breakdown.txt", buf.Bytes())
}

func TestWriteBreakdownDisabled(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBreakdown(&buf, trace.Report{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tracing disabled") {
		t.Errorf("disabled report should say so, got %q", buf.String())
	}
}

func TestAccuracyRecords(t *testing.T) {
	nan := 0.0
	nan /= nan
	recs := AccuracyRecords("IteCholQRCP", 1e-15, 2e-16, 12.5, nan)
	if len(recs) != 3 {
		t.Fatalf("want 3 records (NaN skipped), got %d: %+v", len(recs), recs)
	}
	want := []struct {
		stage string
		value float64
	}{
		{"orthogonality", 1e-15},
		{"residual", 2e-16},
		{"cond_r11", 12.5},
	}
	for i, w := range want {
		if recs[i].Stage != w.stage || recs[i].Value != w.value {
			t.Errorf("record %d = %+v, want stage %s value %g", i, recs[i], w.stage, w.value)
		}
		if recs[i].Name != "IteCholQRCP" || recs[i].Unit != "" {
			t.Errorf("record %d name/unit = %q/%q", i, recs[i].Name, recs[i].Unit)
		}
	}
}

func TestTraceRecordsRoundTrip(t *testing.T) {
	recs := TraceRecords("x", sampleReport())
	out, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	var back []Record
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round trip length %d != %d", len(back), len(recs))
	}
	for i := range recs {
		if back[i] != recs[i] {
			t.Errorf("record %d: %+v != %+v", i, back[i], recs[i])
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	f := &File{Header: NewHeader(), Records: []Record{
		{Name: "Gram", M: 10000, N: 64, Iters: 9, NsPerOp: 5e6, GFLOPS: 16, PctPeak: 20},
		{Name: "CQRRPTParity", Stage: "residual", M: 20000, N: 64, Iters: 1, Value: 3e-16, Unit: "ratio"},
	}}
	if err := f.Write(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Header != f.Header || len(back.Records) != len(f.Records) {
		t.Fatalf("round trip: %+v != %+v", back, f)
	}
	for i := range f.Records {
		if back.Records[i] != f.Records[i] {
			t.Errorf("record %d: %+v != %+v", i, back.Records[i], f.Records[i])
		}
	}
}

func TestLoadFileRejectsUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	doc := `{"schema": "` + SchemaVersion + `", "records": [{"name": "Gram", "m": 1, "n": 1, "backend": "go"}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil || !strings.Contains(err.Error(), "backend") {
		t.Fatalf("want an unknown-field error naming backend, got %v", err)
	}
}
