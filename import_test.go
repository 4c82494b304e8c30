package tsqrcp

import (
	"net/http"
	"os/exec"
	"strings"
	"testing"
)

// TestImportRegistersNoHandlers: importing the library adds nothing to
// http.DefaultServeMux, so a program that imports it serves no
// /debug/pprof/ endpoint it did not ask for.
func TestImportRegistersNoHandlers(t *testing.T) {
	req, err := http.NewRequest(http.MethodGet, "/debug/pprof/", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, pattern := http.DefaultServeMux.Handler(req); pattern != "" {
		t.Fatalf("DefaultServeMux routes /debug/pprof/ to pattern %q", pattern)
	}
}

// TestImportHasNoHTTPDependency: the library does not link net/http at
// all; a live profiling endpoint belongs to a command that asks for one.
func TestImportHasNoHTTPDependency(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not on PATH")
	}
	out, err := exec.Command(gobin, "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, dep := range strings.Fields(string(out)) {
		if dep == "net/http" || strings.HasPrefix(dep, "net/http/") {
			t.Errorf("the library depends on %s", dep)
		}
	}
}
