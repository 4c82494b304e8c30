package dist

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/testmat"
)

func TestInstrumentedCommRecordsTimeline(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	m, n := 400, 16
	a := testmat.Generate(rng, m, n, 13, 1e-10)
	l := Layout{M: m, P: 4}
	blocks := scatter(a, l)
	traces := make([][]TraceEvent, 4)
	Run(4, func(c Comm) {
		tc := Instrument(c)
		if _, err := IteCholQRCP(tc, blocks[c.Rank()], core.DefaultPivotTol); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		traces[c.Rank()] = tc.Trace()
	})
	// One collective per sweep (iterations + reorthogonalization), same
	// count on every rank, each of the full Gram payload.
	want := len(traces[0])
	if want < 3 || want > 8 {
		t.Fatalf("trace length %d implausible", want)
	}
	for r := 1; r < 4; r++ {
		if len(traces[r]) != want {
			t.Fatalf("rank %d trace length %d != %d", r, len(traces[r]), want)
		}
	}
	for _, ev := range traces[0] {
		if ev.Bytes != 8*n*n {
			t.Fatalf("collective payload %d, want %d", ev.Bytes, 8*n*n)
		}
		if ev.CompBefore < 0 {
			t.Fatal("negative computation segment")
		}
	}
}

func TestReplayTraceScaling(t *testing.T) {
	trace := []TraceEvent{
		{Bytes: 2048, CompBefore: 100 * time.Millisecond},
		{Bytes: 2048, CompBefore: 100 * time.Millisecond},
	}
	tail := 50 * time.Millisecond
	// Same P: computation preserved exactly.
	b1 := ReplayTrace(OBCX, trace, tail, 4, 4)
	if d := b1.Comp - 0.25; d > 1e-12 || d < -1e-12 {
		t.Fatalf("comp at same P = %g, want 0.25", b1.Comp)
	}
	// 4× the ranks: computation quarters, communication rises (more hops).
	b2 := ReplayTrace(OBCX, trace, tail, 4, 16)
	if d := b2.Comp - 0.0625; d > 1e-12 || d < -1e-12 {
		t.Fatalf("comp at 4× P = %g, want 0.0625", b2.Comp)
	}
	if b2.Comm <= b1.Comm {
		t.Fatal("communication must grow with P")
	}
	mustPanicD(t, func() { ReplayTrace(OBCX, trace, tail, 0, 4) })
}

func TestTraceDrivenVsClosedFormModel(t *testing.T) {
	// The trace-driven prediction should agree with the closed-form model
	// on the communication side exactly (same collectives priced the same
	// way) for Ite-CholQR-CP.
	rng := rand.New(rand.NewSource(312))
	m, n := 800, 32
	a := testmat.Generate(rng, m, n, 26, 1e-12)
	l := Layout{M: m, P: 2}
	blocks := scatter(a, l)
	var trace []TraceEvent
	var tail time.Duration
	var iters int
	Run(2, func(c Comm) {
		tc := Instrument(c)
		res, err := IteCholQRCP(tc, blocks[c.Rank()], core.DefaultPivotTol)
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		if c.Rank() == 0 {
			trace = tc.Trace()
			tail = tc.TailComp(time.Now())
			iters = res.Iterations
		}
	})
	const bigP = 1024
	replay := ReplayTrace(OBCX, trace, tail, 2, bigP)
	model := ModelIteCholQRCP(OBCX, m, n, bigP, iters)
	rel := (replay.Comm - model.Comm) / model.Comm
	if rel > 1e-9 || rel < -1e-9 {
		t.Fatalf("trace comm %g != model comm %g", replay.Comm, model.Comm)
	}
}
