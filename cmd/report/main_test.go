package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestWriteTraceSectionGolden(t *testing.T) {
	rep := trace.Report{
		Enabled: true,
		WallNs:  10_000_000,
		Stages: []trace.StageStats{
			{Stage: "Gram", Count: 12, TotalNs: 4_000_000, Flops: 40_000_000, GFLOPS: 10},
			{Stage: "CholCP", Count: 12, TotalNs: 800_000},
			{Stage: "TRSM", Count: 12, TotalNs: 3_500_000, Flops: 21_000_000, GFLOPS: 6},
			{Stage: "Swap", Count: 9, TotalNs: 200_000},
			{Stage: "kernel/syrk", Kernel: true, Count: 12, TotalNs: 3_900_000, Flops: 39_000_000, GFLOPS: 10},
		},
		Counters: map[string]int64{"iterations": 9, "eps_exits": 6},
	}
	var buf bytes.Buffer
	writeTraceSection(&buf, rep)
	got := buf.Bytes()

	path := filepath.Join("testdata", "trace_section.txt")
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
		t.Errorf("trace section mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestTraceSectionParsable checks the invariants downstream scripts rely
// on: a dashed title line, one row per stage, kernels after stages, and
// percentages that sum to ≈ the wall clock.
func TestTraceSectionParsable(t *testing.T) {
	rep := trace.Report{
		Enabled: true,
		WallNs:  1_000_000,
		Stages: []trace.StageStats{
			{Stage: "Gram", Count: 1, TotalNs: 600_000},
			{Stage: "TRSM", Count: 1, TotalNs: 400_000},
		},
	}
	var buf bytes.Buffer
	writeTraceSection(&buf, rep)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 5 {
		t.Fatalf("want title, dashes, header, 2 rows; got %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("line 2 should underline the title, got %q", lines[1])
	}
	if !strings.Contains(lines[2], "stage") || !strings.Contains(lines[2], "%wall") {
		t.Errorf("header line missing columns: %q", lines[2])
	}
	var gram, trsm bool
	for _, l := range lines[3:] {
		fields := strings.Fields(l)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "Gram":
			gram = strings.Contains(l, "60.0%")
		case "TRSM":
			trsm = strings.Contains(l, "40.0%")
		}
	}
	if !gram || !trsm {
		t.Errorf("stage rows with expected %%wall not found:\n%s", buf.String())
	}
}

func TestDashes(t *testing.T) {
	if d := dashes(4); d != "----" {
		t.Errorf("dashes(4) = %q", d)
	}
	if d := dashes(0); d != "" {
		t.Errorf("dashes(0) = %q", d)
	}
}

// TestFigureTableMatchesDesign reads the experiment index of DESIGN.md
// (§8): every row must name exactly one report -fig value, that value
// must be in the figure table, and every figure must appear in the index.
func TestFigureTableMatchesDesign(t *testing.T) {
	buf, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(buf)
	start := strings.Index(doc, "\n## 8.")
	if start < 0 {
		t.Fatal("DESIGN.md has no §8")
	}
	sec := doc[start+1:]
	if end := strings.Index(sec, "\n## "); end >= 0 {
		sec = sec[:end]
	}
	figRe := regexp.MustCompile("`report -fig ([0-9a-z]+)`")
	named := map[string]bool{}
	rows := 0
	for _, line := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(line, "| ") || strings.HasPrefix(line, "| ID ") {
			continue
		}
		rows++
		m := figRe.FindAllStringSubmatch(line, -1)
		if len(m) != 1 {
			t.Errorf("§8 row names %d report -fig values, want 1: %s", len(m), line)
			continue
		}
		if _, err := selectFigures(m[0][1]); err != nil {
			t.Errorf("§8 row: %v", err)
		}
		named[m[0][1]] = true
	}
	if rows == 0 {
		t.Fatal("§8 has no table rows")
	}
	for _, f := range figures {
		if !named[f.key] {
			t.Errorf("figure %q is not named in DESIGN.md §8", f.key)
		}
	}
}

func TestSelectFigures(t *testing.T) {
	all, err := selectFigures("all")
	if err != nil || len(all) != len(figures) {
		t.Fatalf("all: %d figures, %v", len(all), err)
	}
	if one, err := selectFigures("t3"); err != nil || len(one) != 1 || one[0].key != "t3" {
		t.Fatalf("t3: %v, %v", one, err)
	}
	for _, bad := range []string{"", "5", "9", "1A", "t3 "} {
		if _, err := selectFigures(bad); err == nil {
			t.Errorf("-fig %q should be rejected", bad)
		}
	}
}

type failingWriter struct{ writes int }

func (f *failingWriter) Write(p []byte) (int, error) {
	f.writes++
	return 0, errors.New("no space left on device")
}

// TestStickyWriterKeepsFirstError checks that a failed write is neither
// lost nor followed by further writes.
func TestStickyWriterKeepsFirstError(t *testing.T) {
	fw := &failingWriter{}
	w := &stickyWriter{w: fw}
	writeReport(w, nil, 1, false, false)
	if w.err == nil || !strings.Contains(w.err.Error(), "no space") {
		t.Fatalf("err = %v, want the write error", w.err)
	}
	if fw.writes != 1 {
		t.Fatalf("%d writes reached the failing writer, want 1", fw.writes)
	}
}
