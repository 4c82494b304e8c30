package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const cannedOutput = `# repro/internal/blas
internal/blas/level1.go:7:6: can inline Dot with cost 42
internal/blas/level1.go:10:9: "blas: Dot length mismatch" escapes to heap
internal/blas/gemm.go:151:13: make([]float64, n) escapes to heap
internal/blas/gemm.go:160:2: moved to heap: acc
internal/blas/gemm.go:200:14: tmp does not escape
# repro/internal/core
internal/core/cholqr.go:33:10: inlining call to mat.Dense.Row
not a diagnostic line
internal/core/cholqr.go:40:12: leaking param: a
`

func TestParseDiagnostics(t *testing.T) {
	got := parseDiagnostics(cannedOutput)
	want := []diag{
		{file: "internal/blas/level1.go", line: 10, msg: `"blas: Dot length mismatch" escapes to heap`},
		{file: "internal/blas/gemm.go", line: 151, msg: "make([]float64, n) escapes to heap"},
		{file: "internal/blas/gemm.go", line: 160, msg: "moved to heap: acc"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseDiagnostics:\n got  %v\n want %v", got, want)
	}
}

func TestMatchEscapes(t *testing.T) {
	ranges := []funcRange{
		{file: "internal/blas/level1.go", name: "Dot", from: 8, to: 18},
		{file: "internal/blas/gemm.go", name: "gemmTNRange", from: 150, to: 170},
	}
	got := matchEscapes(parseDiagnostics(cannedOutput), ranges)
	want := []string{
		`internal/blas/gemm.go: gemmTNRange: make([]float64, n) escapes to heap`,
		`internal/blas/gemm.go: gemmTNRange: moved to heap: acc`,
		`internal/blas/level1.go: Dot: "blas: Dot length mismatch" escapes to heap`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("matchEscapes:\n got  %v\n want %v", got, want)
	}
}

func TestMatchEscapesOutsideRanges(t *testing.T) {
	ranges := []funcRange{
		{file: "internal/blas/level1.go", name: "Axpy", from: 20, to: 30},
	}
	if got := matchEscapes(parseDiagnostics(cannedOutput), ranges); len(got) != 0 {
		t.Errorf("expected no records for non-overlapping ranges, got %v", got)
	}
}

func TestHotpathRanges(t *testing.T) {
	dir := t.TempDir()
	src := `package k

// Hot is annotated.
//
//repolint:hotpath
func Hot(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Cold is not.
func Cold() {}
`
	if err := os.WriteFile(filepath.Join(dir, "k.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// Test files and testdata trees are excluded from the gate.
	if err := os.WriteFile(filepath.Join(dir, "k_test.go"), []byte("package k\n\n//repolint:hotpath\nfunc helper() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, "testdata")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, "f.go"), []byte("package f\n\n//repolint:hotpath\nfunc ignored() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := hotpathRanges(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("expected 1 annotated function, got %v", got)
	}
	r := got[0]
	if r.file != "k.go" || r.name != "Hot" {
		t.Errorf("wrong range identity: %+v", r)
	}
	if r.from > 6 || r.to < 11 {
		t.Errorf("range %d-%d does not cover the function body", r.from, r.to)
	}
}

// TestHotpathRangesStatementForm checks the statement form of the
// annotation: a //repolint:hotpath line directly above `x := func…` or
// `var x = func…` inside a cold function gates that literal alone.
func TestHotpathRangesStatementForm(t *testing.T) {
	dir := t.TempDir()
	src := `package k

func Cold(xs []float64) float64 {
	s := 0.0
	//repolint:hotpath
	add := func(v float64) {
		s += v
	}
	//repolint:hotpath
	var twice = func(v float64) float64 {
		return 2 * v
	}
	plain := func() {}
	for _, v := range xs {
		add(twice(v))
	}
	plain()
	return s
}
`
	if err := os.WriteFile(filepath.Join(dir, "k.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := hotpathRanges(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []funcRange{
		{file: "k.go", name: "Cold.add", from: 6, to: 8},
		{file: "k.go", name: "Cold.twice", from: 10, to: 12},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("hotpathRanges:\n got  %+v\n want %+v", got, want)
	}
}

// TestCheckCompiled: an annotated file that only the purego build
// compiles passes, and one that no gated build compiles is an error
// naming the file.
func TestCheckCompiled(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"fallback.go": "//go:build purego\n\npackage k\n\n//repolint:hotpath\nfunc fallback() {}\n",
		"orphan.go":   "//go:build neverbuilt\n\npackage k\n\n//repolint:hotpath\nfunc orphan() {}\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ranges, err := hotpathRanges(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != 2 {
		t.Fatalf("expected 2 annotated functions, got %v", ranges)
	}
	for _, r := range ranges {
		err := checkCompiled(dir, []funcRange{r})
		switch r.file {
		case "fallback.go":
			if err != nil {
				t.Errorf("purego-only file rejected: %v", err)
			}
		case "orphan.go":
			if err == nil || !strings.Contains(err.Error(), "orphan.go") {
				t.Errorf("uncompiled file: got %v, want an error naming orphan.go", err)
			}
		}
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.txt")
	records := []string{
		`a.go: F: x escapes to heap`,
		`b.go: G: moved to heap: y`,
	}
	if err := writeBaseline(path, records); err != nil {
		t.Fatal(err)
	}
	got, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("round trip lost records: %v", got)
	}
	for _, r := range records {
		if !got[r] {
			t.Errorf("record missing after round trip: %s", r)
		}
	}
	// Missing baseline reads as empty, not as an error.
	empty, err := readBaseline(filepath.Join(t.TempDir(), "absent.txt"))
	if err != nil || len(empty) != 0 {
		t.Errorf("missing baseline: got %v, %v", empty, err)
	}
}
