package main

// Direct coverage for the loader and driver plumbing that the golden
// harness only exercises indirectly: build-tag file selection, allow
// suppression placement, and findings ordering.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

func TestBuildableFileTags(t *testing.T) {
	cases := []struct {
		name string
		src  string
		tags map[string]bool
		want bool
	}{
		{"no constraint", "package p\n", nil, true},
		{"custom tag absent", "//go:build debugchecks\n\npackage p\n", nil, false},
		{"custom tag present", "//go:build debugchecks\n\npackage p\n", map[string]bool{"debugchecks": true}, true},
		{"negated tag default", "//go:build !debugchecks\n\npackage p\n", nil, true},
		{"negated tag set", "//go:build !debugchecks\n\npackage p\n", map[string]bool{"debugchecks": true}, false},
		{"and of two tags, one set", "//go:build cshim && cgo\n\npackage p\n", map[string]bool{"cshim": true}, false},
		{"and of two tags, both set", "//go:build cshim && cgo\n\npackage p\n", map[string]bool{"cshim": true, "cgo": true}, true},
		{"wrong GOOS", "//go:build plan9\n\npackage p\n", nil, false},
		{"gc toolchain", "//go:build gc\n\npackage p\n", nil, true},
		{"release floor", "//go:build go1.21\n\npackage p\n", nil, true},
		{"future release", "//go:build go1.99\n\npackage p\n", nil, false},
	}
	for _, c := range cases {
		if got := buildableFile([]byte(c.src), c.tags); got != c.want {
			t.Errorf("%s: buildableFile = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCollectAllowsPlacement(t *testing.T) {
	src := `package p

//repolint:allow floatcmp — constant comparison below
var a = 1.0 == 1.0

var b = computed() //repolint:allow floatcmp,hotpath — same-line form

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
	if !allows[6]["floatcmp"] || !allows[6]["hotpath"] {
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
	hot := &Pass{Mod: p.Mod, check: &check{name: "hotpath"}, allows: map[*ast.File]map[int]map[string]bool{}}
	if hot.allowedAt(f, 4) {
		t.Error("line-above comment names only floatcmp; hotpath must not be suppressed")
	}
	if !hot.allowedAt(f, 9) {
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

// writeTestModule lays down a module with one plain file and one
// tag-gated file.
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

func TestLoadModuleTagSelection(t *testing.T) {
	dir := writeTestModule(t)

	find := func(mod *Module) *Pkg {
		for _, p := range mod.Pkgs {
			if p.ImportPath == "tagmod/a" {
				return p
			}
		}
		t.Fatal("package tagmod/a not loaded")
		return nil
	}

	mod, errs := loadModule(dir)
	if len(errs) > 0 {
		t.Fatalf("default load: %v", errs)
	}
	pkg := find(mod)
	if len(pkg.Files) != 1 {
		t.Errorf("default config: %d files; want 1", len(pkg.Files))
	}

	mod, errs = loadModuleTags(dir, map[string]bool{"debugchecks": true})
	if len(errs) > 0 {
		t.Fatalf("debugchecks load: %v", errs)
	}
	pkg = find(mod)
	if len(pkg.Files) != 2 {
		t.Errorf("debugchecks config: %d files; want 2 (debug.go selected)", len(pkg.Files))
	}
}
