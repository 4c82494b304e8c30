package tsqrcp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/mat"
	"repro/metrics"
	"repro/testmat"
)

// TestConcurrentEnginesDifferentWidths is the embedding contract the
// Engine redesign exists for: two goroutines factor different matrices at
// the same time on engines with different worker bounds. Run under -race
// this pins that no per-call width leaks through global state.
func TestConcurrentEnginesDifferentWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	a1 := testmat.Generate(rng, 400, 24, 20, 1e-10)
	a2 := testmat.Generate(rng, 300, 16, 12, 1e-8)
	ref1, err := QRCP(a1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref2, err := QRCP(a2, nil)
	if err != nil {
		t.Fatal(err)
	}

	e1 := NewEngine(1)
	e4 := NewEngine(4)
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, 2*rounds)
	run := func(e *Engine, a *mat.Dense, ref *Factorization) {
		defer wg.Done()
		f, err := e.QRCP(a, nil)
		if err != nil {
			errs <- err
			return
		}
		for j := range ref.Perm {
			if f.Perm[j] != ref.Perm[j] {
				errs <- errors.New("engine width changed the pivot sequence")
				return
			}
		}
		if r := metrics.Residual(a, f.Q, f.R, f.Perm); r > 1e-13 {
			errs <- errors.New("residual degraded under concurrency")
		}
	}
	for i := 0; i < rounds; i++ {
		wg.Add(2)
		go run(e1, a1, ref1)
		go run(e4, a2, ref2)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestEngineWorkers(t *testing.T) {
	if got := NewEngine(3).Workers(); got != 3 {
		t.Fatalf("NewEngine(3).Workers() = %d", got)
	}
	if got := NewEngine(0).Workers(); got < 1 {
		t.Fatalf("NewEngine(0).Workers() = %d", got)
	}
	// DefaultEngine is a real engine, and the documented nil and zero
	// engines stand for it: all cores, tracking GOMAXPROCS.
	var nilEngine *Engine
	for name, e := range map[string]*Engine{"DefaultEngine()": DefaultEngine(), "nil": nilEngine, "zero": {}} {
		if got, want := e.Workers(), runtime.GOMAXPROCS(0); got != want {
			t.Fatalf("%s.Workers() = %d, want GOMAXPROCS = %d", name, got, want)
		}
	}
	if DefaultEngine() == nil {
		t.Fatal("DefaultEngine() is nil")
	}
	if got := NewEngine(8).WithWorkers(2).Workers(); got != 2 {
		t.Fatalf("WithWorkers(2).Workers() = %d", got)
	}
	// A derived context engine keeps its width.
	if got := NewEngine(5).WithContext(context.Background()).Workers(); got != 5 {
		t.Fatalf("WithContext lost the width: %d", got)
	}
}

func TestEngineContextCancelsQRCP(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	a := testmat.Generate(rng, 200, 12, 10, 1e-6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := DefaultEngine().WithContext(ctx).QRCP(a, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("QRCP on cancelled engine: err = %v, want context.Canceled", err)
	}
}

func TestQRCPBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	problems := make([]*mat.Dense, 9)
	for i := range problems {
		problems[i] = testmat.Generate(rng, 150+10*i, 12, 10, 1e-8)
	}
	// Problem 4 has a zero column: exactly rank-deficient, it factors at
	// rank n − 1 without disturbing its neighbors.
	for i := 0; i < problems[4].Rows; i++ {
		problems[4].Set(i, 3, 0)
	}
	// Problem 7 is wide: invalid input, must surface as an error, not a
	// panic that kills the batch.
	wide := mat.NewDense(8, 12)
	for i := range wide.Data {
		wide.Data[i] = rng.NormFloat64()
	}
	problems[7] = wide

	results, err := QRCPBatch(context.Background(), problems, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(problems) {
		t.Fatalf("got %d results for %d problems", len(results), len(problems))
	}
	for i, res := range results {
		switch i {
		case 4:
			if res.Err != nil || res.F.Rank != 11 {
				t.Errorf("problem 4: err = %v, want rank 11 of 12", res.Err)
			}
		case 7:
			if res.Err == nil {
				t.Error("problem 7 (wide): expected an error")
			}
		default:
			if res.Err != nil {
				t.Errorf("problem %d: %v", i, res.Err)
				continue
			}
			if r := metrics.Residual(problems[i], res.F.Q, res.F.R, res.F.Perm); r > 1e-13 {
				t.Errorf("problem %d: residual %g", i, r)
			}
		}
	}
}

func TestQRCPBatchOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	problems := []*mat.Dense{
		testmat.Generate(rng, 200, 10, 8, 1e-6),
		testmat.Generate(rng, 200, 10, 8, 1e-6),
	}
	// Width 2 over 2 problems: 2 concurrent shards, each factorization at
	// width 1.
	results, err := NewEngine(2).QRCPBatch(context.Background(), problems, &Options{PivotTol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("problem %d: %v", i, res.Err)
		}
		ref, err := QRCP(problems[i], &Options{PivotTol: 1e-4})
		if err != nil {
			t.Fatal(err)
		}
		for j := range ref.Perm {
			if res.F.Perm[j] != ref.Perm[j] {
				t.Fatalf("problem %d: batch pivots differ from direct call", i)
			}
		}
	}
}

func TestQRCPBatchCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	problems := make([]*mat.Dense, 16)
	for i := range problems {
		problems[i] = testmat.Generate(rng, 400, 24, 20, 1e-10)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the batch starts: nothing should be factored
	results, err := QRCPBatch(ctx, problems, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("QRCPBatch err = %v, want context.Canceled", err)
	}
	for i, res := range results {
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("problem %d: err = %v, want context.Canceled", i, res.Err)
		}
		if res.F != nil {
			t.Errorf("problem %d: factorization produced after cancellation", i)
		}
	}
}

func TestQRCPBatchEmpty(t *testing.T) {
	results, err := QRCPBatch(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("got %d results for empty batch", len(results))
	}
}

func TestFactorizationUnified(t *testing.T) {
	rng := rand.New(rand.NewSource(407))
	a := testmat.Generate(rng, 200, 16, 6, 1e-4)
	full, err := QRCP(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.Rank != 16 {
		t.Fatalf("full factorization Rank = %d, want n = 16", full.Rank)
	}
	// Reconstruct on a full factorization returns A itself.
	diff := full.Reconstruct()
	maxErr := 0.0
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if d := diff.At(i, j) - a.At(i, j); d > maxErr || -d > maxErr {
				if d < 0 {
					d = -d
				}
				maxErr = d
			}
		}
	}
	if maxErr > 1e-12 {
		t.Fatalf("full Reconstruct error %g", maxErr)
	}

	trunc, err := QRCPTruncated(a, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if trunc.Rank != 6 {
		t.Fatalf("truncated Rank = %d, want 6", trunc.Rank)
	}
	if got := trunc.NumericalRank(1e-8); got != 6 {
		t.Fatalf("truncated NumericalRank = %d, want 6", got)
	}
}

// TestEngineOneShotsMatchPackageHelpers pins the one-shot consolidation:
// every package-level unpivoted helper must be exactly its Engine-method
// counterpart on the default engine. (The default engine is compared to
// itself rather than to a narrowed one because TSQR's reduction tree
// legitimately produces different bits at different widths.)
func TestEngineOneShotsMatchPackageHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := testmat.Generate(rng, 300, 12, 12, 1e-4)
	e := DefaultEngine()

	type qrFn func() (*QR, error)
	cases := []struct {
		name      string
		pkg, meth qrFn
	}{
		{"CholeskyQR", func() (*QR, error) { return CholeskyQR(a) }, func() (*QR, error) { return e.CholeskyQR(a) }},
		{"CholeskyQR2", func() (*QR, error) { return CholeskyQR2(a) }, func() (*QR, error) { return e.CholeskyQR2(a) }},
		{"ShiftedCholeskyQR3", func() (*QR, error) { return ShiftedCholeskyQR3(a) }, func() (*QR, error) { return e.ShiftedCholeskyQR3(a) }},
		{"HouseholderQR", func() (*QR, error) { return HouseholderQR(a), nil }, func() (*QR, error) { return e.HouseholderQR(a), nil }},
		{"TSQR", func() (*QR, error) { return TSQR(a), nil }, func() (*QR, error) { return e.TSQR(a), nil }},
	}
	for _, tc := range cases {
		p, err := tc.pkg()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		m, err := tc.meth()
		if err != nil {
			t.Fatalf("%s (engine): %v", tc.name, err)
		}
		for _, pair := range []struct {
			label     string
			got, want *mat.Dense
		}{{"Q", m.Q, p.Q}, {"R", m.R, p.R}} {
			if pair.got.Rows != pair.want.Rows || pair.got.Cols != pair.want.Cols {
				t.Fatalf("%s: %s shape mismatch", tc.name, pair.label)
			}
			for i := 0; i < pair.want.Rows; i++ {
				for j := 0; j < pair.want.Cols; j++ {
					g := pair.got.Data[i*pair.got.Stride+j]
					w := pair.want.Data[i*pair.want.Stride+j]
					if math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s: %s[%d,%d] differs between package helper and engine method",
							tc.name, pair.label, i, j)
					}
				}
			}
		}
	}
}

// TestWidthOneRunsInline checks that a width-1 engine reaches no pool
// worker through a multi-slot ReduceRows, the TSQR halves or a
// QRCPBatch, and gives the bits of width 2.
func TestWidthOneRunsInline(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	tall := testmat.GenerateWellConditioned(rng, 20000, 16, 1e6)
	problems := make([]*mat.Dense, 4)
	for i := range problems {
		problems[i] = testmat.Generate(rng, 512, 16, 12, 1e-8)
	}
	for _, c := range []struct {
		name string
		run  func(width int) []*mat.Dense
	}{
		{"Gram", func(width int) []*mat.Dense {
			w := mat.NewDense(16, 16)
			blas.Gram(parallel.NewEngine(width), w, tall.RowSlice(0, 8192))
			return []*mat.Dense{w}
		}},
		{"TSQR", func(width int) []*mat.Dense {
			qr := core.TSQR(parallel.NewEngine(width), tall)
			return []*mat.Dense{qr.Q, qr.R}
		}},
		{"QRCPBatch", func(width int) []*mat.Dense {
			results, err := NewEngine(width).QRCPBatch(context.Background(), problems, nil)
			if err != nil {
				t.Fatal(err)
			}
			var out []*mat.Dense
			for i, res := range results {
				if res.Err != nil {
					t.Fatalf("problem %d: %v", i, res.Err)
				}
				out = append(out, res.F.Q, res.F.R)
			}
			return out
		}},
	} {
		want := c.run(2)
		trace.Reset()
		trace.Enable()
		got := c.run(1)
		rep := trace.Snapshot()
		trace.Disable()
		trace.Reset()
		if d := rep.Counters["worker_dispatches"]; d != 0 {
			t.Errorf("width-1 %s dispatched %d pool tasks, want 0", c.name, d)
		}
		for k := range want {
			for i, v := range want[k].Data {
				if math.Float64bits(got[k].Data[i]) != math.Float64bits(v) {
					t.Fatalf("%s: output %d differs between widths 1 and 2 at flat index %d", c.name, k, i)
				}
			}
		}
	}
}
