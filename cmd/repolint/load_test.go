package main

// Direct coverage for the loader and driver plumbing that the golden
// harness only exercises indirectly: file selection, allow suppression
// placement, and findings ordering.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

func TestCollectAllowsPlacement(t *testing.T) {
	src := `package p

//repolint:allow floatcmp — constant comparison below
var a = 1.0 == 1.0

var b = computed() //repolint:allow floatcmp,norand — same-line form

//repolint:allow all
var c = computed()

func computed() bool { return false }
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	allows := collectAllows(fset, f)

	if !allows[3]["floatcmp"] {
		t.Errorf("line-above comment not indexed at its own line: %v", allows)
	}
	if !allows[6]["floatcmp"] || !allows[6]["norand"] {
		t.Errorf("same-line multi-check comment not indexed: %v", allows[6])
	}
	if !allows[8]["all"] {
		t.Errorf("allow-all comment not indexed: %v", allows[8])
	}
	if len(allows[4]) != 0 {
		t.Errorf("comment indexed at the suppressed line instead of its own: %v", allows[4])
	}

	// allowedAt honors both placements: a comment suppresses its own line
	// and the line directly below it.
	p := &Pass{
		Mod:    &Module{Fset: fset},
		check:  &check{name: "floatcmp"},
		allows: map[*ast.File]map[int]map[string]bool{},
	}
	for _, line := range []int{3, 4, 6} {
		if !p.allowedAt(f, line) {
			t.Errorf("line %d should be suppressed for floatcmp", line)
		}
	}
	if p.allowedAt(f, 5) {
		t.Error("line 5 has no adjacent allow comment and must not be suppressed")
	}
	other := &Pass{Mod: p.Mod, check: &check{name: "norand"}, allows: map[*ast.File]map[int]map[string]bool{}}
	if other.allowedAt(f, 4) {
		t.Error("line-above comment names only floatcmp; norand must not be suppressed")
	}
	if !other.allowedAt(f, 9) {
		t.Error("allow-all must suppress every check on the line below")
	}
}

func TestSortFindings(t *testing.T) {
	fs := []Finding{
		{Pos: token.Position{Filename: "b.go", Line: 1, Column: 1}, Check: "x"},
		{Pos: token.Position{Filename: "a.go", Line: 9, Column: 2}, Check: "x"},
		{Pos: token.Position{Filename: "a.go", Line: 9, Column: 1}, Check: "x"},
		{Pos: token.Position{Filename: "a.go", Line: 2, Column: 5}, Check: "x"},
	}
	sortFindings(fs)
	want := []struct {
		file      string
		line, col int
	}{
		{"a.go", 2, 5}, {"a.go", 9, 1}, {"a.go", 9, 2}, {"b.go", 1, 1},
	}
	for i, w := range want {
		p := fs[i].Pos
		if p.Filename != w.file || p.Line != w.line || p.Column != w.col {
			t.Fatalf("order[%d] = %s:%d:%d, want %s:%d:%d", i, p.Filename, p.Line, p.Column, w.file, w.line, w.col)
		}
	}
}

// writeTestModule lays down a module whose package has one plain file
// and three that a plain `go build` leaves out: a tag-gated file, a file
// whose name restricts it to another GOOS, and a test file.
func writeTestModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module tagmod\n\ngo 1.22\n",
		"a/a.go": "package a\n\n// Base is always built.\nfunc Base() int { return 1 }\n",
		"a/debug.go": `//go:build debugchecks

package a

// DebugOnly exists only under the debugchecks tag.
func DebugOnly() int { return 2 }
`,
		"a/a_plan9.go":  "package a\n\n// Plan9Only exists only on plan9.\nfunc Plan9Only() int { return 3 }\n",
		"a/a_test.go":   "package a\n\nfunc helper() int { return undefined }\n",
		"a/_ignored.go": "package ignored\n",
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadModuleTagSelection checks that the loader selects files as go
// build does: the tag-gated, other-GOOS, _-prefixed and test files stay
// out, so the package type-checks from a.go alone.
func TestLoadModuleTagSelection(t *testing.T) {
	mod, errs := loadModule(writeTestModule(t))
	if len(errs) > 0 {
		t.Fatalf("load: %v", errs)
	}
	if len(mod.Pkgs) != 1 || mod.Pkgs[0].ImportPath != "tagmod/a" {
		t.Fatalf("loaded %d packages; want tagmod/a alone", len(mod.Pkgs))
	}
	files := mod.Pkgs[0].Files
	if len(files) != 1 || filepath.Base(mod.Fset.File(files[0].Pos()).Name()) != "a.go" {
		t.Errorf("selected %d files; want a.go alone", len(files))
	}
}
