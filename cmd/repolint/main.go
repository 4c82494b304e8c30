// Command repolint is the repo-specific static analyzer: a stdlib-only
// (go/parser + go/types) driver that loads every package in the module
// and enforces the load-bearing conventions nothing else checks
// mechanically:
//
//	workspacebalance  pooled workspaces (mat.GetWorkspace) are
//	                  released on every return path
//	spanbalance       trace.Region spans always reach .End()
//	enginethread      exported kernels that fan out accept a
//	                  *parallel.Engine
//	floatcmp          no ==/!= between computed floating-point values
//	norand            no global math/rand state outside testmat/ and tests
//	ctxcancel         panel/sweep loops and service accept loops observe
//	                  cancellation once per iteration; go statements carry
//	                  a context or engine
//
// Each rule has one gate. Rules another tool already enforces are not
// repeated here: cmd/escapecheck gates //repolint:hotpath functions on
// the compiler's escape analysis, and internal/parallel offers no
// package-level For or width knob for a kernel to call.
//
// Usage:
//
//	go run ./cmd/repolint ./...
//
// The package-pattern argument is accepted for familiarity but the tool
// always analyzes the whole module containing the working directory. It
// reads the non-test files go/build selects for this host, the same set
// a plain `go build` compiles. Diagnostics print as
// file:line:col: message [check]; the exit status is 1 when findings
// exist, 2 on load/type-check errors, 0 otherwise.
//
// A finding is suppressed by a comment on the same line or the line
// directly above:
//
//	//repolint:allow floatcmp — exact sentinel comparison, see §7
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: repolint [./...]\n")
	}
	flag.Parse()

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}
	root, err := findModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}

	mod, errs := loadModule(root)
	if len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "repolint: load:", e)
		}
		os.Exit(2)
	}

	findings := runChecks(mod)
	for _, f := range findings {
		fmt.Println(formatFinding(cwd, f))
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// findModuleRoot walks up from dir to the nearest directory holding go.mod.
func findModuleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// formatFinding renders one diagnostic with a path relative to cwd when
// that is shorter (matching the style of go vet).
func formatFinding(cwd string, f Finding) string {
	name := f.Pos.Filename
	if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
		name = rel
	}
	return fmt.Sprintf("%s:%d:%d: %s [%s]", name, f.Pos.Line, f.Pos.Column, f.Msg, f.Check)
}

// sortFindings orders diagnostics by file, then line, then column.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i].Pos, fs[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}
