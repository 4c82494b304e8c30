// Command escapecheck gates heap escapes in hot-path kernels on the
// compiler's own escape analysis. It is the one gate for the
// //repolint:hotpath annotation: functions on the Gram/TRSM/GEMM inner
// loops must not allocate.
//
// The repo's "0 allocs/op" claims for the Gram/TRSM/GEMM inner loops are
// bench observations; this tool turns them into a source-level CI gate.
// It parses every non-test Go file in the module for the annotation,
// replays `go build -gcflags=-m=1 ./...` to collect the compiler's
// escape diagnostics — once for the host and once with -tags purego,
// which compiles the Go fallback loops in place of the amd64 assembly —
// and fails when an annotated function carries an escape that is not in
// the checked-in baseline, or sits in a file neither build compiles.
// The annotation takes two forms: on a function's doc comment, or on the
// line directly above a statement that binds a function literal inside a
// cold function,
//
//	//repolint:hotpath
//	gramPanel := func(p panel, pd *mat.Dense) error { … }
//
// which gates that literal alone, recorded as Enclosing.gramPanel.
//
// Formatting and error construction show up as escapes: a
// fmt.Sprintf, fmt.Errorf, errors.New or strconv call, or a panic with a
// non-constant value, boxes or allocates its operands. The one blind
// spot is a call that escapes nothing, such as log.Printf with a
// constant format and no arguments.
//
// Records are normalized to file + function + message — no line numbers
// — so unrelated edits to a file do not churn the baseline. Known,
// accepted escapes (for example the constant panic-message strings in
// internal/blas, which cost nothing until they fire) live in
// cmd/escapecheck/baseline.txt. To accept a new escape deliberately:
//
//	make lint-fix-baseline   # regenerates the baseline
//
// then review the diff in the PR like any other source change.
//
// Usage:
//
//	escapecheck [-baseline file] [-update] [dir]
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	baselineFlag := flag.String("baseline", "cmd/escapecheck/baseline.txt", "baseline file of accepted escapes, relative to the module root")
	updateFlag := flag.Bool("update", false, "rewrite the baseline with the current escape set instead of diffing against it")
	flag.Parse()

	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	if err := run(root, *baselineFlag, *updateFlag); err != nil {
		fmt.Fprintln(os.Stderr, "escapecheck:", err)
		os.Exit(1)
	}
}

func run(root, baseline string, update bool) error {
	ranges, err := hotpathRanges(root)
	if err != nil {
		return err
	}
	if err := checkCompiled(root, ranges); err != nil {
		return err
	}
	out, err := buildDiagnostics(root)
	if err != nil {
		return err
	}
	records := matchEscapes(parseDiagnostics(out), ranges)

	baselinePath := filepath.Join(root, baseline)
	if update {
		if err := writeBaseline(baselinePath, records); err != nil {
			return err
		}
		fmt.Printf("escapecheck: baseline updated with %d record(s)\n", len(records))
		return nil
	}

	accepted, err := readBaseline(baselinePath)
	if err != nil {
		return err
	}
	var fresh, stale []string
	for _, r := range records {
		if !accepted[r] {
			fresh = append(fresh, r)
		}
	}
	seen := make(map[string]bool, len(records))
	for _, r := range records {
		seen[r] = true
	}
	for r := range accepted {
		if !seen[r] {
			stale = append(stale, r)
		}
	}
	sort.Strings(stale)
	for _, r := range stale {
		fmt.Printf("escapecheck: note: baseline entry no longer observed (run make lint-fix-baseline): %s\n", r)
	}
	if len(fresh) > 0 {
		for _, r := range fresh {
			fmt.Printf("escapecheck: new heap escape in hotpath function: %s\n", r)
		}
		return fmt.Errorf("%d new escape(s) in //repolint:hotpath functions; fix the allocation or run make lint-fix-baseline to accept it", len(fresh))
	}
	fmt.Printf("escapecheck: ok (%d annotated function(s), %d accepted escape(s))\n", len(ranges), len(records))
	return nil
}

// funcRange is the source extent of one //repolint:hotpath function.
type funcRange struct {
	file     string // slash-separated path relative to the module root
	name     string
	from, to int // inclusive line range
}

// diag is one parsed compiler diagnostic.
type diag struct {
	file string
	line int
	msg  string
}

// hotpathRanges parses every non-test Go file under root (skipping
// testdata and hidden directories) and records the line extents of
// //repolint:hotpath-annotated function declarations.
func hotpathRanges(root string) ([]funcRange, error) {
	var out []funcRange
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		marks := hotpathLines(fset, f)
		span := func(name string, n ast.Node) {
			out = append(out, funcRange{
				file: rel,
				name: name,
				from: fset.Position(n.Pos()).Line,
				to:   fset.Position(n.End()).Line,
			})
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if annotated(fd) {
				span(fd.Name.Name, fd)
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if name := annotatedLiteral(n); name != "" && marks[fset.Position(n.Pos()).Line-1] {
					span(fd.Name.Name+"."+name, n)
				}
				return true
			})
		}
		return nil
	})
	return out, err
}

// annotated reports whether fd's doc comment carries //repolint:hotpath.
func annotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), "//repolint:hotpath") {
			return true
		}
	}
	return false
}

// hotpathLines indexes the lines of f that carry a //repolint:hotpath
// comment: the statement form of the annotation sits on the line above
// `x := func…` inside an otherwise cold function.
func hotpathLines(fset *token.FileSet, f *ast.File) map[int]bool {
	marks := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(strings.TrimSpace(c.Text), "//repolint:hotpath") {
				marks[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return marks
}

// annotatedLiteral returns the name n binds a function literal to, for
// `x := func…`, `x = func…` and `var x = func…`, or "" for any other
// node.
func annotatedLiteral(n ast.Node) string {
	var lhs, rhs []ast.Expr
	switch st := n.(type) {
	case *ast.AssignStmt:
		lhs, rhs = st.Lhs, st.Rhs
	case *ast.ValueSpec:
		if len(st.Names) == 1 {
			lhs, rhs = []ast.Expr{st.Names[0]}, st.Values
		}
	}
	if len(lhs) != 1 || len(rhs) != 1 {
		return ""
	}
	id, ok := lhs[0].(*ast.Ident)
	if _, lit := ast.Unparen(rhs[0]).(*ast.FuncLit); !ok || !lit {
		return ""
	}
	return id.Name
}

// buildTags are the build configurations the gate compiles, as -tags
// values: the host's, and purego, which swaps the amd64 assembly for the
// Go fallback loops.
var buildTags = []string{"", "purego"}

// checkCompiled fails, naming the file, when an annotated function sits
// in a file that no configuration of buildTags compiles: its escapes
// would never reach the gate. File selection is go/build's, as the go
// command's.
func checkCompiled(root string, ranges []funcRange) error {
	done := make(map[string]bool)
	for _, r := range ranges {
		if done[r.file] {
			continue
		}
		done[r.file] = true
		path := filepath.Join(root, filepath.FromSlash(r.file))
		compiled := false
		for _, tags := range buildTags {
			ctx := build.Default
			if tags != "" {
				ctx.BuildTags = append([]string{tags}, ctx.BuildTags...)
			}
			ok, err := ctx.MatchFile(filepath.Dir(path), filepath.Base(path))
			if err != nil {
				return err
			}
			compiled = compiled || ok
		}
		if !compiled {
			return fmt.Errorf("%s: //repolint:hotpath function %s is compiled by no gated build (host, -tags purego)", r.file, r.name)
		}
	}
	return nil
}

// buildDiagnostics replays the compiler's escape analysis for every
// module package under each of buildTags and merges the outputs. The
// diagnostics come back from the build cache when nothing changed, so
// repeated runs are cheap.
func buildDiagnostics(root string) (string, error) {
	var all strings.Builder
	for _, tags := range buildTags {
		cmd := exec.Command("go", "build", "-tags="+tags, "-gcflags=-m=1", "./...")
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		if err != nil {
			return "", fmt.Errorf("go build -tags=%q -gcflags=-m=1 failed: %v\n%s", tags, err, out)
		}
		all.Write(out)
	}
	return all.String(), nil
}

var diagRe = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (.+)$`)

// parseDiagnostics extracts heap-escape lines from -m output. Inlining
// notes and "does not escape" confirmations are dropped.
func parseDiagnostics(out string) []diag {
	var diags []diag
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		m := diagRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[3]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		n, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		diags = append(diags, diag{file: filepath.ToSlash(m[1]), line: n, msg: msg})
	}
	return diags
}

// matchEscapes keeps the diagnostics that land inside an annotated
// function and normalizes them to sorted, line-number-free records.
func matchEscapes(diags []diag, ranges []funcRange) []string {
	set := make(map[string]bool)
	for _, d := range diags {
		for _, r := range ranges {
			if d.file == r.file && d.line >= r.from && d.line <= r.to {
				set[fmt.Sprintf("%s: %s: %s", r.file, r.name, d.msg)] = true
				break
			}
		}
	}
	records := make([]string, 0, len(set))
	for r := range set {
		records = append(records, r)
	}
	sort.Strings(records)
	return records
}

// readBaseline loads the accepted-escape set; blank lines and #-comments
// are skipped. A missing baseline is an empty set.
func readBaseline(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]bool{}, nil
		}
		return nil, err
	}
	out := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out[line] = true
	}
	return out, nil
}

// writeBaseline rewrites the baseline file with the current records.
func writeBaseline(path string, records []string) error {
	var b strings.Builder
	b.WriteString("# Accepted heap escapes in //repolint:hotpath functions.\n")
	b.WriteString("# One record per line: file: function: compiler message.\n")
	b.WriteString("# Regenerate with `make lint-fix-baseline` and review the diff.\n")
	for _, r := range records {
		b.WriteString(r)
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
