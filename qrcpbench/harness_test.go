package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("p90 of one sample = %g, want 7", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("p50 of no samples = %g, want NaN", got)
	}
}

// The reported tail, p90, must keep at least 10 samples beyond it, which
// is why a window times at least 100 ops.
func TestP90TenBeyondRule(t *testing.T) {
	for _, c := range []struct{ n, want int }{{99, 9}, {100, 10}, {999, 99}, {1000, 100}} {
		if got := beyond(c.n, 90); got != c.want {
			t.Errorf("beyond(%d, 90) = %d, want %d", c.n, got, c.want)
		}
	}
	if got := beyond(minTimedOps, 90); got < 10 {
		t.Errorf("minTimedOps = %d leaves %d samples beyond p90, want ≥ 10", minTimedOps, got)
	}
	if got := beyond(minTimedOps-1, 90); got >= 10 {
		t.Errorf("%d samples leave %d beyond p90; minTimedOps is larger than it needs to be", minTimedOps-1, got)
	}
}

func TestParseProcStat(t *testing.T) {
	const stat = "cpu  100 5 50 800 10 1 2 32 7 0\ncpu0 50 2 25 400 5 0 1 16 3 0\nintr 12345\n"
	got, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := (cpuTicks{total: 1000, steal: 32}); got != want {
		t.Fatalf("parseProcStat = %+v, want %+v", got, want)
	}
	later := cpuTicks{total: 1200, steal: 62}
	if share := later.shareSince(got); share != 0.15 {
		t.Errorf("steal share = %g, want 0.15", share)
	}
	if share := got.shareSince(got); share != 0 {
		t.Errorf("steal share over no ticks = %g, want 0", share)
	}
	for _, bad := range []string{"", "intr 1\n", "cpu 1 2 3\n", "cpu 1 2 3 4 5 6 7 x\n"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) succeeded, want an error", bad)
		}
	}
}

func TestWindowIssuesAtLeastMinOpsAndCountsFailures(t *testing.T) {
	w := newWindow(5, 8) // never opened: it issues exactly its minimum
	issued := 0
	for w.next() {
		issued++
		w.add(time.Millisecond, issued != 3)
	}
	if issued != 5 {
		t.Fatalf("an expired window issued %d ops, want its minimum 5", issued)
	}
	if w.failed.Load() != 1 || !math.IsInf(w.lat[2], 1) || w.lat[0] != 1 {
		t.Errorf("failed = %d, lat = %v; want one failure stored as +Inf", w.failed.Load(), w.lat[:5])
	}
	full := newWindow(100, 3)
	full.openUntil(time.Now().Add(time.Minute))
	for i := 0; i < 3; i++ {
		if !full.next() {
			t.Fatalf("op %d refused below capacity", i)
		}
	}
	if full.next() {
		t.Error("window issued more ops than its buffer holds")
	}
}

func TestGramLowerMatchesDefinition(t *testing.T) {
	const m, n = 5, 3
	a := []float64{1, 2, 3, -1, 0, 4, 2, 2, -2, 0.5, 1, 0, 3, -3, 1}
	g := make([]float64, n*n)
	g[1] = 99 // the upper triangle is left alone, the lower one overwritten
	gramLower(a, g, n)
	for j := 0; j < n; j++ {
		for k := 0; k <= j; k++ {
			want := 0.0
			for i := 0; i < m; i++ {
				want += a[i*n+j] * a[i*n+k]
			}
			if g[j*n+k] != want {
				t.Errorf("G[%d,%d] = %g, want %g", j, k, g[j*n+k], want)
			}
		}
	}
}

// The CPU clocks must resolve one calibration rep, which getrusage's
// 4 ms ticks did not.
func TestCPUClocksResolveOneRep(t *testing.T) {
	c := newCalibrator()
	p0 := processCPU()
	wall, cpu := c.sample()
	if !(wall > 0) || !(cpu > 0) || cpu > 2*wall {
		t.Errorf("rep slowdown wall %g cpu %g, want both positive and cpu ≲ wall", wall, cpu)
	}
	if processCPU() <= p0 {
		t.Error("the process CPU clock did not advance over a rep")
	}
	if n := len(c.wall); n != 1 || len(c.cpu) != 1 {
		t.Errorf("calibrator kept %d reps, want 1", n)
	}
}
