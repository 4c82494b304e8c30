// Command repolint is the repo-specific static analyzer: a stdlib-only
// (go/parser + go/types) driver that loads every package in the module
// and enforces the load-bearing conventions nothing else checks
// mechanically:
//
//	workspacebalance  pooled workspaces (mat.GetWorkspace/GetFloats) are
//	                  released on every return path
//	spanbalance       trace.Region spans always reach .End()
//	enginethread      kernel packages thread *parallel.Engine instead of
//	                  touching the default-engine shims
//	floatcmp          no ==/!= between computed floating-point values
//	norand            no global math/rand state outside testmat/ and tests
//	hotpath           //repolint:hotpath functions stay free of fmt/log/
//	                  errors/strconv calls and dynamic panics
//	detreduce         parallel workers in the kernel packages never
//	                  accumulate into shared float state directly; cross-
//	                  worker reductions go through per-slot buffers
//	wirebounds        lengths decoded from the wire in service/ pass a
//	                  bounds comparison before make/slicing/loop bounds
//	ctxcancel         panel/sweep loops and service accept loops observe
//	                  cancellation once per iteration; go statements carry
//	                  a context or engine
//
// Usage:
//
//	go run ./cmd/repolint [-tags debugchecks] [-json] ./...
//
// The package-pattern argument is accepted for familiarity but the tool
// always analyzes the whole module containing the working directory.
// -tags selects tag-gated files exactly as `go build -tags` would.
// Diagnostics print as file:line:col: message [check], or as one JSON
// object per line under -json; the exit status is 1 when findings exist,
// 2 on load/type-check errors, 0 otherwise.
//
// A finding is suppressed by a comment on the same line or the line
// directly above:
//
//	//repolint:allow floatcmp — exact sentinel comparison, see §7
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	checksFlag := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	listFlag := flag.Bool("list", false, "list available checks and exit")
	tagsFlag := flag.String("tags", "", "comma-separated build tags, as in go build -tags")
	jsonFlag := flag.Bool("json", false, "emit findings as JSON objects, one per line")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: repolint [-checks c1,c2] [-tags t1,t2] [-json] [./...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listFlag {
		for _, c := range allChecks {
			fmt.Printf("%-18s %s\n", c.name, c.doc)
		}
		return
	}

	enabled, err := selectChecks(*checksFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}

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

	mod, errs := loadModuleTags(root, parseTags(*tagsFlag))
	if len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "repolint: load:", e)
		}
		os.Exit(2)
	}

	findings := runChecks(mod, enabled)
	for _, f := range findings {
		if *jsonFlag {
			fmt.Println(jsonFinding(cwd, f))
		} else {
			fmt.Println(formatFinding(cwd, f))
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// parseTags splits the -tags flag into a build-tag set.
func parseTags(spec string) map[string]bool {
	if spec == "" {
		return nil
	}
	tags := make(map[string]bool)
	for _, t := range strings.Split(spec, ",") {
		if t = strings.TrimSpace(t); t != "" {
			tags[t] = true
		}
	}
	return tags
}

// selectChecks resolves the -checks flag against the registry.
func selectChecks(spec string) ([]*check, error) {
	if spec == "" {
		return allChecks, nil
	}
	byName := make(map[string]*check, len(allChecks))
	for _, c := range allChecks {
		byName[c.name] = c
	}
	var out []*check
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		c, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown check %q", name)
		}
		out = append(out, c)
	}
	return out, nil
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

// jsonFinding renders one diagnostic as a single-line JSON object for
// machine consumers (editor integrations, CI annotators).
func jsonFinding(cwd string, f Finding) string {
	name := f.Pos.Filename
	if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
		name = rel
	}
	buf, err := json.Marshal(struct {
		File  string `json:"file"`
		Line  int    `json:"line"`
		Col   int    `json:"col"`
		Check string `json:"check"`
		Msg   string `json:"msg"`
	}{name, f.Pos.Line, f.Pos.Column, f.Check, f.Msg})
	if err != nil {
		return formatFinding(cwd, f)
	}
	return string(buf)
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
