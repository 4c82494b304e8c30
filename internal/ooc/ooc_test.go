package ooc

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/mat"
)

// TestPanelSchedule pins the properties the bit-identity contract rests
// on: panels cover [0,m) exactly once in ascending order, never cross a
// slot boundary, and are no taller than requested.
func TestPanelSchedule(t *testing.T) {
	for _, m := range []int{1, 63, 64, 65, 2048, 5000, 9001, 100000} {
		for _, pr := range []int{1, 64, 100, 192, 1 << 20} {
			ps := panelSchedule(m, pr)
			next := 0
			for _, p := range ps {
				if p.lo != next || p.hi <= p.lo {
					t.Fatalf("m=%d pr=%d: panel [%d,%d) breaks coverage at %d", m, pr, p.lo, p.hi, next)
				}
				sLo, sHi := blas.FusedSlotBounds(m, blas.FusedSlots(m), p.slot)
				if p.lo < sLo || p.hi > sHi {
					t.Fatalf("m=%d pr=%d: panel [%d,%d) escapes slot %d [%d,%d)", m, pr, p.lo, p.hi, p.slot, sLo, sHi)
				}
				if p.hi-p.lo > pr {
					t.Fatalf("m=%d pr=%d: panel [%d,%d) taller than requested", m, pr, p.lo, p.hi)
				}
				next = p.hi
			}
			if next != m {
				t.Fatalf("m=%d pr=%d: schedule ends at %d", m, pr, next)
			}
		}
	}
}

// TestAutoPanelRows: whatever the machine's memory signals say, the
// tuned height is positive and bounded.
func TestAutoPanelRows(t *testing.T) {
	for _, n := range []int{1, 16, 64, 1024} {
		rows := autoPanelRows(n)
		if rows < 1 {
			t.Fatalf("n=%d: rows=%d not positive", n, rows)
		}
		if rows > autotuneMaxPanelRows {
			t.Fatalf("n=%d: rows=%d above the cap", n, rows)
		}
	}
}

func writeBin(t *testing.T, m, n int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	a := mat.NewDense(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	path := filepath.Join(t.TempDir(), "a.tsqrmat")
	if err := a.WriteBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestQRCPCancellation: a cancelled engine context surfaces as the
// context error, with the prefetch goroutine joined and scratch removed
// before QRCP returns (the deferred cleanup path).
func TestQRCPCancellation(t *testing.T) {
	path := writeBin(t, 2000, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := parallel.NewEngine(2).WithContext(ctx)
	if _, err := QRCP(e, path, Config{PanelRows: 128}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunSweepReadErrorPropagates: a panel read failing mid-sweep (the
// scratch file is shorter than the schedule expects) aborts the sweep
// with the I/O error instead of wedging the pipeline, and runSweep still
// joins its prefetch goroutine before returning.
func TestRunSweepReadErrorPropagates(t *testing.T) {
	const m, n, pr = 1000, 4, 128
	s := &fileSweeper{
		e:     parallel.NewEngine(1),
		m:     m,
		n:     n,
		sched: panelSchedule(m, pr),
	}
	s.bufs[0] = mat.NewDense(pr, n)
	s.bufs[1] = mat.NewDense(pr, n)
	s.scratchDir = t.TempDir()
	if err := s.ensureScratch(); err != nil {
		t.Fatal(err)
	}
	defer s.cleanup()
	// Shrink scratch below one full matrix: some panel read must fail.
	if err := s.scratch.Truncate(8 * int64(m/2) * int64(n)); err != nil {
		t.Fatal(err)
	}
	seen := 0
	err := s.runSweep(rawSource{f: s.scratch, cols: n}, func(p panel, pd *mat.Dense) error {
		seen++
		return nil
	})
	if err == nil {
		t.Fatal("short scratch read did not error")
	}
	if seen >= len(s.sched) {
		t.Fatalf("all %d panels delivered despite the short file", seen)
	}
}

// TestRawSourceRoundTrip: the headerless scratch source reads back what
// the sweeper's writePanel layout stores.
func TestRawSourceRoundTrip(t *testing.T) {
	const m, n = 130, 5
	s := &fileSweeper{m: m, n: n}
	s.scratchDir = t.TempDir()
	if err := s.ensureScratch(); err != nil {
		t.Fatal(err)
	}
	defer s.cleanup()
	rng := rand.New(rand.NewSource(10))
	a := mat.NewDense(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for _, r := range [][2]int{{0, 64}, {64, 130}} {
		pd := a.Slice(r[0], r[1], 0, n).Clone()
		if err := s.writePanel(pd, panel{lo: r[0], hi: r[1]}); err != nil {
			t.Fatal(err)
		}
	}
	src := rawSource{f: s.scratch, cols: n}
	got := mat.NewDense(m, n)
	nb, err := src.readPanel(got, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	if nb != 8*m*n {
		t.Fatalf("read %d bytes, want %d", nb, 8*m*n)
	}
	for i := range a.Data {
		if a.Data[i] != got.Data[i] {
			t.Fatalf("scratch round trip differs at %d", i)
		}
	}
}
