package ooc

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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

// TestAutoPanelRows pins the default height to its formula,
// 32 MiB/(2·8·n) clamped to [1, m]: the height depends on the matrix
// alone, never on the machine.
func TestAutoPanelRows(t *testing.T) {
	for _, c := range []struct{ m, n, want int }{
		{2000000, 64, 32768}, // the e2e-ooc gate's 1 GiB matrix
		{200000, 64, 32768},
		{10000, 64, 10000}, // clamped to m
		{1 << 30, 1, 2 << 20},
		{1 << 30, 3, 699050},
		{100, 4 << 20, 1}, // wider than the budget: one row
	} {
		if got := autoPanelRows(c.m, c.n); got != c.want {
			t.Errorf("autoPanelRows(%d, %d) = %d, want %d", c.m, c.n, got, c.want)
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
// context error, with the prefetch goroutine joined and the scratch
// directory removed before QRCP returns (the deferred cleanup path).
// The context is cancelled once before the run, when no scratch exists
// yet, and once mid-run, as soon as the scratch directory appears in
// ScratchDir. The file is tall, the panels short and Q is written, so
// the pivoting pass that creates the scratch and the Q sweep after it
// are still streaming when the cancellation lands. The partial Q file
// goes too.
func TestQRCPCancellation(t *testing.T) {
	for _, tc := range []struct {
		name     string
		m        int
		midSweep bool
	}{{"before start", 2000, false}, {"after scratch appears", 200000, true}} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeBin(t, tc.m, 8)
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// watched reports whether the watcher saw the scratch
			// directory under its name before it cancelled.
			watched := make(chan bool, 1)
			if tc.midSweep {
				go func() {
					for ctx.Err() == nil {
						if ents, _ := os.ReadDir(dir); len(ents) > 0 {
							cancel()
							watched <- strings.HasPrefix(ents[0].Name(), "tsqrcp-ooc-")
							return
						}
						time.Sleep(20 * time.Microsecond)
					}
					watched <- false
				}()
			} else {
				cancel()
			}
			e := parallel.NewEngine(2).WithContext(ctx)
			qPath := filepath.Join(t.TempDir(), "q.tsqrmat")
			cfg := Config{PanelRows: 128, ScratchDir: dir, QPath: qPath}
			if _, err := QRCP(e, path, cfg); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if _, err := os.Stat(qPath); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("partial Q file left behind (stat err %v)", err)
			}
			if tc.midSweep && !<-watched {
				t.Fatal("the scratch directory never appeared under its tsqrcp-ooc-* name")
			}
			if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
				t.Fatalf("scratch dir holds %v after a cancelled QRCP (err %v)", left, err)
			}
		})
	}
}

// TestQRCPRemovesScratch: a run that writes scratch leaves its
// ScratchDir as it found it.
func TestQRCPRemovesScratch(t *testing.T) {
	path := writeBin(t, 2000, 8)
	dir := t.TempDir()
	if _, err := QRCP(parallel.NewEngine(2), path, Config{PanelRows: 128, ScratchDir: dir}); err != nil {
		t.Fatal(err)
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("scratch dir holds %v after QRCP (err %v)", left, err)
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
	if err := os.Truncate(s.scratchName, mat.BinaryHeaderSize+8*int64(m/2)*int64(n)); err != nil {
		t.Fatal(err)
	}
	seen := 0
	err := s.runSweep(s.scratch, func(p panel, pd *mat.Dense) error {
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

// TestScratchRoundTrip: the scratch file reads back what the sweeper's
// writePanel stores, and is itself a valid binary-format matrix.
func TestScratchRoundTrip(t *testing.T) {
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
	got := mat.NewDense(m, n)
	nb, err := s.scratch.ReadRows(got, 0, m)
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
	file, err := mat.ReadBinaryFile(s.scratchName)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.EqualApprox(file, a, 0) {
		t.Fatal("scratch file does not decode as the written matrix")
	}
}
