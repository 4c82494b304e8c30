package main

// Golden-fixture test in the style of analysistest: testdata/src is a
// self-contained mini-module (module path "repro", stub mat / trace /
// parallel packages) whose fixture packages seed one passing and one
// failing case per check. Expected diagnostics are declared inline with
//
//	expr // want "regexp"
//
// comments; the test fails on any unmatched finding (false positive) or
// unmatched want (false negative). The allowfix package carries real
// violations silenced by //repolint:allow and therefore no wants.

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wantRe extracts the quoted pattern of a `// want "..."` comment.
var wantRe = regexp.MustCompile(`// want ("(?:[^"\\]|\\.)*")`)

type wantExpect struct {
	pos     string // file:line
	pattern *regexp.Regexp
	matched bool
}

func TestGoldenFixtures(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	mod, errs := loadModule(root)
	if len(errs) > 0 {
		for _, e := range errs {
			t.Errorf("load: %v", e)
		}
		t.FailNow()
	}

	findings := runChecks(mod)
	if len(findings) == 0 {
		t.Fatal("no findings on the seeded fixtures; the failing cases are not being detected")
	}

	wants := collectWants(t, mod)

	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		msg := fmt.Sprintf("%s [%s]", f.Msg, f.Check)
		if !claimWant(wants[key], msg) {
			t.Errorf("unexpected finding at %s: %s", relTo(root, key), msg)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("missing finding at %s matching %q", relTo(root, key), w.pattern)
			}
		}
	}
}

// collectWants indexes every // want comment in the fixture module by
// file:line.
func collectWants(t *testing.T, mod *Module) map[string][]*wantExpect {
	t.Helper()
	wants := make(map[string][]*wantExpect)
	add := func(file *ast.File) {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pat, err := strconv.Unquote(m[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", mod.Fset.Position(c.Pos()), m[1], err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: want pattern does not compile: %v", mod.Fset.Position(c.Pos()), err)
					}
					pos := mod.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					wants[key] = append(wants[key], &wantExpect{pos: key, pattern: re})
				}
			}
		}
	}
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			add(f)
		}
	}
	return wants
}

// claimWant marks the first unmatched want whose pattern matches msg.
func claimWant(ws []*wantExpect, msg string) bool {
	for _, w := range ws {
		if !w.matched && w.pattern.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// relTo shortens an absolute file:line key for error messages.
func relTo(root, key string) string {
	if rel, err := filepath.Rel(root, key); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return key
}
