package service

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	tsqrcp "repro"
	"repro/mat"
	"repro/testmat"
)

// startServer runs a server on a loopback port and tears it down with
// the test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil && !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	})
	// Serve sets s.ln before accepting; wait for the address.
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	return srv
}

func dialServer(t *testing.T, srv *Server) *Client {
	t.Helper()
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// factsEqual asserts two factorizations match bit for bit.
func factsEqual(t *testing.T, got, want *tsqrcp.Factorization, label string) {
	t.Helper()
	if len(got.Perm) != len(want.Perm) {
		t.Fatalf("%s: perm length %d, want %d", label, len(got.Perm), len(want.Perm))
	}
	for i := range want.Perm {
		if got.Perm[i] != want.Perm[i] {
			t.Fatalf("%s: perm[%d] = %d, want %d", label, i, got.Perm[i], want.Perm[i])
		}
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: iterations %d, want %d", label, got.Iterations, want.Iterations)
	}
	if !sameBits(got.Q, want.Q) {
		t.Fatalf("%s: Q not bit-identical to in-process result", label)
	}
	if !sameBits(got.R, want.R) {
		t.Fatalf("%s: R not bit-identical to in-process result", label)
	}
}

// TestServedMatchesInProcess is the in-package e2e: mixed shapes and
// strategies served concurrently over one pipelined connection, every
// result compared bit-for-bit against the in-process factorization.
func TestServedMatchesInProcess(t *testing.T) {
	srv := startServer(t, Config{BatchSize: 4, FlushInterval: time.Millisecond})
	c := dialServer(t, srv)
	rng := rand.New(rand.NewSource(11))

	type jobCase struct {
		name string
		a    *mat.Dense
		opts *tsqrcp.Options
	}
	var cases []jobCase
	for i, shape := range []struct{ m, n int }{{200, 8}, {500, 16}, {500, 16}, {1000, 32}, {300, 8}, {500, 16}} {
		a := testmat.Generate(rng, shape.m, shape.n, (shape.n*4)/5, 1e-10)
		cases = append(cases, jobCase{name: "ite", a: a, opts: nil})
		if i%3 == 0 {
			cases = append(cases, jobCase{name: "cqrrpt", a: a,
				opts: &tsqrcp.Options{Strategy: tsqrcp.StrategyCQRRPT, Seed: 42}})
		}
	}

	want := make([]*tsqrcp.Factorization, len(cases))
	for i, tc := range cases {
		f, err := tsqrcp.QRCP(tc.a, tc.opts)
		if err != nil {
			t.Fatalf("in-process %s[%d]: %v", tc.name, i, err)
		}
		want[i] = f
	}

	var wg sync.WaitGroup
	errs := make([]error, len(cases))
	got := make([]*tsqrcp.Factorization, len(cases))
	for i, tc := range cases {
		wg.Add(1)
		go func(i int, tc jobCase) {
			defer wg.Done()
			got[i], errs[i] = c.Factor(context.Background(), Request{Tenant: "e2e", A: tc.a, Options: tc.opts})
		}(i, tc)
	}
	wg.Wait()
	for i, tc := range cases {
		if errs[i] != nil {
			t.Fatalf("served %s[%d]: %v", tc.name, i, errs[i])
		}
		factsEqual(t, got[i], want[i], tc.name)
	}

	st := srv.Stats()
	if st.Accepted != int64(len(cases)) {
		t.Errorf("accepted = %d, want %d", st.Accepted, len(cases))
	}
	if st.Completed != int64(len(cases)) {
		t.Errorf("completed = %d, want %d", st.Completed, len(cases))
	}
	if st.Batches == 0 || st.Batches > int64(len(cases)) {
		t.Errorf("batches = %d, want in [1, %d] (bucketing should coalesce same-shape jobs)", st.Batches, len(cases))
	}
	if st.QueueDepth != 0 {
		t.Errorf("queue depth = %d after all responses, want 0", st.QueueDepth)
	}
}

// TestPastDeadlineRejected: a job whose deadline has already expired is
// rejected with the distinct deadline error, without compute.
func TestPastDeadlineRejected(t *testing.T) {
	srv := startServer(t, Config{})
	c := dialServer(t, srv)
	rng := rand.New(rand.NewSource(12))
	a := randMat(rng, 100, 8)

	_, err := c.Factor(context.Background(), Request{A: a, Timeout: time.Nanosecond})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("Factor = %v, want ErrDeadlineExceeded", err)
	}
	if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrFailed) {
		t.Fatalf("deadline error %v is not distinct", err)
	}
	if st := srv.Stats(); st.DeadlineExceeded != 1 {
		t.Errorf("deadline_exceeded = %d, want 1", st.DeadlineExceeded)
	}
}

// TestDeadlinePropagation: a deadline that expires mid-factorization is
// propagated into the engine context (Engine.WithContext) and the job
// resolves to ErrDeadlineExceeded — not a late StatusOK.
func TestDeadlinePropagation(t *testing.T) {
	srv := startServer(t, Config{BatchSize: 1})
	c := dialServer(t, srv)
	rng := rand.New(rand.NewSource(13))
	// Big enough that the factorization cannot finish within the
	// deadline on any plausible machine; the deadline itself is long
	// enough to survive admission and flush.
	a := randMat(rng, 200000, 64)

	start := time.Now()
	_, err := c.Factor(context.Background(), Request{A: a, Timeout: 20 * time.Millisecond})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("Factor = %v, want ErrDeadlineExceeded", err)
	}
	// The response must arrive via cancellation, far sooner than the
	// full factorization would take; generous bound for slow CI.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("deadline response took %v — cancellation did not propagate", elapsed)
	}
	if st := srv.Stats(); st.DeadlineExceeded != 1 {
		t.Errorf("deadline_exceeded = %d, want 1", st.DeadlineExceeded)
	}
}

// TestBackpressure: with the admission queue full, further jobs are
// rejected immediately with ErrOverloaded — bounded queueing, not
// buffering — and the queued jobs still complete on drain.
func TestBackpressure(t *testing.T) {
	// Big batch + long flush interval park admitted jobs in their
	// bucket, deterministically filling the queue.
	srv := startServer(t, Config{
		MaxPending:    2,
		BatchSize:     64,
		FlushInterval: time.Hour,
	})
	c := dialServer(t, srv)
	rng := rand.New(rand.NewSource(14))
	a := randMat(rng, 120, 8)

	var wg sync.WaitGroup
	parked := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, parked[i] = c.Factor(context.Background(), Request{A: a})
		}(i)
	}
	// Wait until both jobs are admitted and parked in the bucket.
	for {
		if st := srv.Stats(); st.QueueDepth == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := c.Factor(context.Background(), Request{A: a}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third job = %v, want ErrOverloaded", err)
	}
	st := srv.Stats()
	if st.RejectedQueue != 1 {
		t.Errorf("rejected_queue = %d, want 1", st.RejectedQueue)
	}
	if st.BucketJobs != 2 || st.Buckets != 1 {
		t.Errorf("bucket occupancy = %d jobs in %d buckets, want 2 in 1", st.BucketJobs, st.Buckets)
	}

	// Drain flushes the parked bucket; both jobs complete.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	for i, err := range parked {
		if err != nil {
			t.Errorf("parked job %d: %v", i, err)
		}
	}
}

// TestTenantWidthLimit: one tenant exhausting its width budget is
// rejected while another tenant is still admitted.
func TestTenantWidthLimit(t *testing.T) {
	srv := startServer(t, Config{
		TenantWidth:   1,
		BatchSize:     64,
		FlushInterval: time.Hour,
	})
	c := dialServer(t, srv)
	rng := rand.New(rand.NewSource(15))
	a := randMat(rng, 120, 8)

	var wg sync.WaitGroup
	var firstErr, otherErr error
	wg.Add(1)
	go func() { defer wg.Done(); _, firstErr = c.Factor(context.Background(), Request{Tenant: "hog", A: a}) }()
	for {
		if st := srv.Stats(); st.QueueDepth == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := c.Factor(context.Background(), Request{Tenant: "hog", A: a}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second hog job = %v, want ErrOverloaded", err)
	}
	if st := srv.Stats(); st.RejectedTenant != 1 {
		t.Errorf("rejected_tenant = %d, want 1", st.RejectedTenant)
	}

	wg.Add(1)
	go func() { defer wg.Done(); _, otherErr = c.Factor(context.Background(), Request{Tenant: "guest", A: a}) }()
	for {
		if st := srv.Stats(); st.QueueDepth == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	if firstErr != nil || otherErr != nil {
		t.Errorf("admitted jobs failed: hog=%v guest=%v", firstErr, otherErr)
	}
}

// TestGracefulDrain: Shutdown lets in-flight jobs finish and rejects
// new ones with the distinct shutting-down error.
func TestGracefulDrain(t *testing.T) {
	srv := startServer(t, Config{BatchSize: 64, FlushInterval: time.Hour})
	c := dialServer(t, srv)
	rng := rand.New(rand.NewSource(16))
	a := testmat.Generate(rng, 400, 16, 12, 1e-10)
	want, err := tsqrcp.QRCP(a, nil)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var inflightF *tsqrcp.Factorization
	var inflightErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		inflightF, inflightErr = c.Factor(context.Background(), Request{A: a})
	}()
	for {
		if st := srv.Stats(); st.QueueDepth == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	for !srv.Stats().Draining {
		time.Sleep(time.Millisecond)
	}

	// A job arriving mid-drain on the existing connection is rejected
	// with the distinct shutting-down error (races with conn teardown on
	// loopback may surface as a closed connection instead; both are
	// clean rejections, never a hang or a wrong result).
	if _, err := c.Factor(context.Background(), Request{A: a}); err == nil {
		t.Fatal("job admitted mid-drain")
	} else if !errors.Is(err, ErrShuttingDown) && !errors.Is(err, net.ErrClosed) &&
		!errors.Is(err, context.DeadlineExceeded) {
		if _, isNet := err.(net.Error); !isNet {
			t.Logf("mid-drain rejection: %v", err)
		}
	}

	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	if inflightErr != nil {
		t.Fatalf("in-flight job during drain: %v", inflightErr)
	}
	factsEqual(t, inflightF, want, "drained job")

	// The listener is gone: new connections fail.
	if _, err := Dial(srv.Addr().String()); err == nil {
		t.Error("Dial succeeded after Shutdown")
	}
}

// TestStatsOverWire: the observability snapshot is queryable through
// the protocol.
func TestStatsOverWire(t *testing.T) {
	srv := startServer(t, Config{})
	c := dialServer(t, srv)
	rng := rand.New(rand.NewSource(17))
	if _, err := c.Factor(context.Background(), Request{A: randMat(rng, 64, 4)}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 1 || st.Completed != 1 {
		t.Errorf("wire stats = %+v, want accepted=1 completed=1", st)
	}
}

// TestNumericalFailure: a singular input fails with ErrFailed for that
// job only: the result frame has no rank field, so a rank-deficient
// factorization is answered with a message naming the rank.
func TestNumericalFailure(t *testing.T) {
	srv := startServer(t, Config{BatchSize: 2, FlushInterval: time.Millisecond})
	c := dialServer(t, srv)
	rng := rand.New(rand.NewSource(18))

	bad := mat.NewDense(50, 4) // zero columns: exact dependence
	good := randMat(rng, 50, 4)

	var wg sync.WaitGroup
	var badErr, goodErr error
	wg.Add(2)
	go func() { defer wg.Done(); _, badErr = c.Factor(context.Background(), Request{A: bad}) }()
	go func() { defer wg.Done(); _, goodErr = c.Factor(context.Background(), Request{A: good}) }()
	wg.Wait()

	if !errors.Is(badErr, ErrFailed) || !strings.Contains(badErr.Error(), "rank 0 < 4") {
		t.Errorf("singular job = %v, want ErrFailed naming rank 0 < 4", badErr)
	}
	if goodErr != nil {
		t.Errorf("healthy neighbor failed: %v", goodErr)
	}
}

// TestInvalidJobOverWire: a malformed request shape is rejected with
// ErrInvalid by the server's decode validation.
func TestInvalidJobOverWire(t *testing.T) {
	srv := startServer(t, Config{MaxCols: 8})
	c := dialServer(t, srv)
	rng := rand.New(rand.NewSource(19))
	if _, err := c.Factor(context.Background(), Request{A: randMat(rng, 100, 16)}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("oversized job = %v, want ErrInvalid", err)
	}
}

// TestBitsHelper pins the helper the e2e comparisons rest on.
func TestBitsHelper(t *testing.T) {
	a := mat.NewDense(1, 1)
	b := mat.NewDense(1, 1)
	a.Set(0, 0, 0)
	b.Set(0, 0, math.Copysign(0, -1))
	if sameBits(a, b) {
		t.Fatal("sameBits conflated +0 and -0")
	}
}
