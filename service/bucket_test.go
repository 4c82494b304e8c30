package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	tsqrcp "repro"
	"repro/mat"
	"repro/testmat"
)

// TestFillTriggerFlushes: BatchSize same-shape jobs dispatch as one
// batch without waiting out the flush interval.
func TestFillTriggerFlushes(t *testing.T) {
	srv := startServer(t, Config{BatchSize: 4, FlushInterval: time.Hour})
	c := dialServer(t, srv)
	rng := rand.New(rand.NewSource(21))
	a := randMat(rng, 200, 8)

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Factor(context.Background(), Request{A: a})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	st := srv.Stats()
	if st.FlushFull != 1 || st.Batches != 1 {
		t.Errorf("flush_full = %d batches = %d, want 1/1 (fill trigger, FlushInterval is 1h)", st.FlushFull, st.Batches)
	}
}

// TestDeadlineTriggerFlushes: a lone job is dispatched after
// FlushInterval even though its bucket never fills.
func TestDeadlineTriggerFlushes(t *testing.T) {
	srv := startServer(t, Config{BatchSize: 64, FlushInterval: 2 * time.Millisecond})
	c := dialServer(t, srv)
	rng := rand.New(rand.NewSource(22))

	if _, err := c.Factor(context.Background(), Request{A: randMat(rng, 200, 8)}); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.FlushDeadline != 1 || st.FlushFull != 0 {
		t.Errorf("flush_deadline = %d flush_full = %d, want 1/0 (deadline trigger)", st.FlushDeadline, st.FlushFull)
	}
}

// TestShapesBucketSeparately: different shapes (and different options)
// never share a batch.
func TestShapesBucketSeparately(t *testing.T) {
	srv := startServer(t, Config{BatchSize: 2, FlushInterval: 5 * time.Millisecond})
	c := dialServer(t, srv)
	rng := rand.New(rand.NewSource(23))

	a1 := randMat(rng, 200, 8)
	a2 := randMat(rng, 300, 8) // different m
	a3 := randMat(rng, 200, 8) // same shape as a1, CQRRPT options

	var wg sync.WaitGroup
	var errs [3]error
	submit := func(i int, a *mat.Dense, opts *tsqrcp.Options) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.Factor(context.Background(), Request{A: a, Options: opts})
		}()
	}
	submit(0, a1, nil)
	submit(1, a2, nil)
	submit(2, a3, &tsqrcp.Options{Strategy: tsqrcp.StrategyCQRRPT, Seed: 9})
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if st := srv.Stats(); st.Batches != 3 {
		t.Errorf("batches = %d, want 3 (three distinct bucket keys)", st.Batches)
	}
}

// TestManyConcurrentClients hammers the server with mixed bucket shapes
// and both strategies from many pipelined connections — the -race
// workload of the CI race job, where every job's frames and decoded
// matrix come from pools the others share — and checks every result
// bit-for-bit against the in-process factorization.
func TestManyConcurrentClients(t *testing.T) {
	srv := startServer(t, Config{BatchSize: 8, FlushInterval: time.Millisecond})
	rng := rand.New(rand.NewSource(24))

	type jobCase struct {
		a    *mat.Dense
		opts *tsqrcp.Options
		want *tsqrcp.Factorization
	}
	var cases []jobCase
	for _, sh := range []struct{ m, n int }{{200, 8}, {400, 16}, {600, 8}} {
		a := testmat.Generate(rng, sh.m, sh.n, (sh.n*3)/4, 1e-10)
		for _, opts := range []*tsqrcp.Options{nil, {Strategy: tsqrcp.StrategyCQRRPT, Seed: 5}} {
			f, err := tsqrcp.QRCP(a, opts)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, jobCase{a, opts, f})
		}
	}

	const clients = 4
	const jobsPerClient = 12
	var wg sync.WaitGroup
	errCh := make(chan error, clients*jobsPerClient)
	got := make([]*tsqrcp.Factorization, clients*jobsPerClient)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(srv.Addr().String())
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			var jw sync.WaitGroup
			for j := 0; j < jobsPerClient; j++ {
				jw.Add(1)
				go func(j int) {
					defer jw.Done()
					tc := cases[(ci+j)%len(cases)]
					f, err := c.Factor(context.Background(), Request{
						Tenant: fmt.Sprintf("client-%d", ci), A: tc.a, Options: tc.opts})
					if err != nil {
						errCh <- fmt.Errorf("client %d job %d: %w", ci, j, err)
						return
					}
					got[ci*jobsPerClient+j] = f
				}(j)
			}
			jw.Wait()
		}(ci)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	for i, f := range got {
		if f != nil {
			ci, j := i/jobsPerClient, i%jobsPerClient
			factsEqual(t, f, cases[(ci+j)%len(cases)].want, fmt.Sprintf("client %d job %d", ci, j))
		}
	}
	st := srv.Stats()
	if st.Accepted != clients*jobsPerClient {
		t.Errorf("accepted = %d, want %d", st.Accepted, clients*jobsPerClient)
	}
	if st.Batches >= clients*jobsPerClient {
		t.Errorf("batches = %d for %d jobs — bucketing never coalesced", st.Batches, clients*jobsPerClient)
	}
}

// TestAdaptiveIntervalEWMA exercises the fill-latency estimator
// directly: no history waits the configured interval, fast fills pull
// the deadline down to the floor clamp, censored (deadline) flushes
// decay it back up, and the history map is bounded.
func TestAdaptiveIntervalEWMA(t *testing.T) {
	const iv = time.Second
	b := newBucketer(tsqrcp.DefaultEngine(), 4, iv, context.Background(), &serverStats{})
	key := shapeKey{m: 100, n: 8}

	if got := b.adaptiveInterval(key); got != iv {
		t.Fatalf("no history: interval = %v, want %v", got, iv)
	}
	b.observeFill(key, 2*time.Millisecond)
	if got, floor := b.adaptiveInterval(key), iv/fillFloorDiv; got != floor {
		t.Fatalf("fast fills: interval = %v, want floor %v", got, floor)
	}
	// Censored observations (bucket never filled) walk the estimate
	// back toward the configured interval.
	for i := 0; i < 40; i++ {
		b.observeFill(key, iv)
	}
	if got := b.adaptiveInterval(key); got != iv {
		t.Fatalf("after decay: interval = %v, want clamp %v", got, iv)
	}
	// Mid-range estimate is used as-is (2× slack, inside the clamps).
	key2 := shapeKey{m: 200, n: 8}
	b.observeFill(key2, 300*time.Millisecond)
	if got := b.adaptiveInterval(key2); got != 600*time.Millisecond {
		t.Fatalf("mid estimate: interval = %v, want 600ms", got)
	}
	// Bounded history: keys beyond the cap fall back to the configured
	// interval instead of growing the map.
	for i := 0; i < fillHistoryMax+10; i++ {
		b.observeFill(shapeKey{m: 1000 + i, n: 4}, time.Millisecond)
	}
	if len(b.fillEWMA) > fillHistoryMax {
		t.Fatalf("history map grew to %d, cap is %d", len(b.fillEWMA), fillHistoryMax)
	}
	over := shapeKey{m: 1000 + fillHistoryMax + 100, n: 4}
	if got := b.adaptiveInterval(over); got != iv {
		t.Fatalf("over-cap key: interval = %v, want %v", got, iv)
	}
}

// TestAdaptiveDeadlineFlush: once fill flushes have seeded a key's
// estimate, a lone job on that key dispatches orders of magnitude
// sooner than the configured interval.
func TestAdaptiveDeadlineFlush(t *testing.T) {
	const iv = 5 * time.Second
	srv := startServer(t, Config{BatchSize: 2, FlushInterval: iv})
	c := dialServer(t, srv)
	rng := rand.New(rand.NewSource(26))
	a := randMat(rng, 200, 8)

	// Two quick fill flushes seed the EWMA with millisecond-scale fills.
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = c.Factor(context.Background(), Request{A: a})
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("seed round %d job %d: %v", round, i, err)
			}
		}
	}

	// The lone job's bucket never fills; with the configured interval it
	// would park for 5s, with the adapted one it flushes at the floor
	// clamp (iv/16 ≈ 312ms).
	start := time.Now()
	if _, err := c.Factor(context.Background(), Request{A: a}); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed >= iv/2 {
		t.Fatalf("lone job took %v — deadline did not adapt below the configured %v", elapsed, iv)
	}
	if st := srv.Stats(); st.FlushDeadline != 1 {
		t.Errorf("flush_deadline = %d, want 1", st.FlushDeadline)
	}
}

// TestDrainTimeoutCancels: a Shutdown context that expires mid-job
// cancels the engine cooperatively and the job still gets a terminal
// response (shutting-down or deadline, never a hang).
func TestDrainTimeoutCancels(t *testing.T) {
	srv := startServer(t, Config{BatchSize: 1})
	c := dialServer(t, srv)
	rng := rand.New(rand.NewSource(25))
	a := randMat(rng, 200000, 64)

	var wg sync.WaitGroup
	var jobErr error
	wg.Add(1)
	go func() { defer wg.Done(); _, jobErr = c.Factor(context.Background(), Request{A: a}) }()
	for {
		if st := srv.Stats(); st.Accepted == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) && err != nil {
		t.Fatalf("Shutdown = %v, want nil or DeadlineExceeded", err)
	}
	wg.Wait()
	if jobErr == nil {
		// The machine may genuinely have finished the job inside the
		// window; that is a valid drain too.
		return
	}
	if !errors.Is(jobErr, ErrShuttingDown) && !errors.Is(jobErr, ErrDeadlineExceeded) &&
		!errors.Is(jobErr, net.ErrClosed) {
		var netErr net.Error
		if !errors.As(jobErr, &netErr) {
			t.Errorf("cancelled job = %v, want a clean terminal error", jobErr)
		}
	}
}
