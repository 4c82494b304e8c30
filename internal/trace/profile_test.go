package trace

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartProfilesNoop(t *testing.T) {
	stop, err := StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	stop() // must be safe with nothing started
}

func TestStartProfilesWritesFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	rt := filepath.Join(dir, "runtime.trace")
	stop, err := StartProfiles(cpu, rt)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profiles have something to record.
	x := 0.0
	for i := 0; i < 1e6; i++ {
		x += float64(i) * 1e-9
	}
	_ = x
	stop()
	for _, p := range []string{cpu, rt} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile %s not written: %v", p, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestStartProfilesBadPath(t *testing.T) {
	if _, err := StartProfiles(filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.out"), ""); err == nil {
		t.Error("unwritable cpu profile path should error")
	}
	if _, err := StartProfiles("", filepath.Join(t.TempDir(), "no", "such", "dir", "rt.out")); err == nil {
		t.Error("unwritable runtime-trace path should error")
	}
}
