// Command qrcp-client submits factorization jobs to a qrcpd server.
//
// Modes:
//
//	qrcp-client -addr HOST:PORT -m 5000 -n 64        one job, print a summary
//	qrcp-client -addr HOST:PORT -ping                 liveness probe (exit 0 when up)
//	qrcp-client -addr HOST:PORT -stats                print the server's admission counters
//	qrcp-client -addr HOST:PORT -selftest             the e2e CI harness (below)
//
// The self-test is the end-to-end acceptance check CI runs against a
// freshly started qrcpd: it submits a deterministic mix of bucket
// shapes and strategies concurrently, verifies every served
// factorization bit-for-bit against the in-process Engine.QRCP on the
// same input, sends one deliberately past-deadline job and requires the
// distinct deadline rejection, and cross-checks the server's admission
// counters over the wire. Exit code 0 means every check passed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"time"

	tsqrcp "repro"
	"repro/mat"
	"repro/service"
	"repro/testmat"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7611", "server address")
	ping := flag.Bool("ping", false, "probe the server and exit")
	stats := flag.Bool("stats", false, "print server stats and exit")
	selftest := flag.Bool("selftest", false, "run the e2e acceptance suite against the server")
	m := flag.Int("m", 5000, "rows of the submitted matrix (single-job mode)")
	n := flag.Int("n", 64, "columns of the submitted matrix (single-job mode)")
	seed := flag.Int64("seed", 1, "matrix generator seed")
	decay := flag.Float64("decay", 1e-12, "grading sigma of the generated matrix — κ₂ of the leading block is 1/decay (single-job mode)")
	rank := flag.Int("rank", 0, "numerical rank of the generated matrix, 0 = 4n/5 (single-job mode)")
	cqrrpt := flag.Bool("cqrrpt", false, "use the randomized CQRRPT strategy (single-job mode)")
	tenant := flag.String("tenant", "cli", "tenant identifier")
	timeout := flag.Duration("timeout", 0, "job deadline (0 = none)")
	flag.Parse()

	switch {
	case *ping:
		c, err := service.Dial(*addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qrcp-client: ping:", err)
			os.Exit(1)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if _, err := c.Stats(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "qrcp-client: ping:", err)
			os.Exit(1)
		}
		fmt.Println("ok")
	case *stats:
		c := dial(*addr)
		st, err := c.Stats(context.Background())
		if err != nil {
			fmt.Fprintln(os.Stderr, "qrcp-client: stats:", err)
			os.Exit(1)
		}
		fmt.Printf("accepted %d  completed %d  failed %d  deadline %d  rejected %d/%d (queue/tenant)\n",
			st.Accepted, st.Completed, st.Failed, st.DeadlineExceeded, st.RejectedQueue, st.RejectedTenant)
		fmt.Printf("batches %d (%d full, %d deadline)  queue depth %d  buckets %d (%d jobs)  draining %v\n",
			st.Batches, st.FlushFull, st.FlushDeadline, st.QueueDepth, st.Buckets, st.BucketJobs, st.Draining)
	case *selftest:
		if err := runSelftest(*addr); err != nil {
			fmt.Fprintln(os.Stderr, "qrcp-client: SELFTEST FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("qrcp-client: selftest ok")
	default:
		c := dial(*addr)
		rng := rand.New(rand.NewSource(*seed))
		r := *rank
		if r == 0 {
			r = (*n * 4) / 5
		}
		a := testmat.Generate(rng, *m, *n, r, *decay)
		var opts *tsqrcp.Options
		if *cqrrpt {
			opts = &tsqrcp.Options{Strategy: tsqrcp.StrategyCQRRPT, Seed: uint64(*seed)}
		}
		start := time.Now()
		f, err := c.Factor(context.Background(), service.Request{
			Tenant: *tenant, A: a, Options: opts, Timeout: *timeout})
		if err != nil {
			fmt.Fprintln(os.Stderr, "qrcp-client:", err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		fmt.Printf("factored %dx%d in %v (%d iterations)\n", *m, *n, elapsed, f.Iterations)
		fmt.Printf("|R(0,0)| = %.6g  |R(n-1,n-1)| = %.6g  numerical rank %d\n",
			math.Abs(f.R.At(0, 0)), math.Abs(f.R.At(*n-1, *n-1)), f.NumericalRank(0))
	}
}

func dial(addr string) *service.Client {
	c, err := service.Dial(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qrcp-client: dial:", err)
		os.Exit(1)
	}
	return c
}

// selftestShapes is the deterministic job mix: repeated shapes so the
// server's size buckets actually coalesce, plus singles that ride the
// deadline trigger.
var selftestShapes = []struct {
	m, n   int
	count  int
	cqrrpt bool
}{
	{400, 16, 4, false},
	{1000, 32, 6, false},
	{2000, 64, 3, false},
	{700, 24, 3, false},
	{1000, 32, 2, true}, // same shape as an ite bucket — must not share it
	{3000, 16, 1, true},
}

func runSelftest(addr string) error {
	c, err := service.Dial(addr)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	defer c.Close()

	// 1. Mixed shapes, served concurrently, each bit-identical to the
	// in-process factorization of the same input.
	type job struct {
		label string
		a     *mat.Dense
		opts  *tsqrcp.Options
	}
	rng := rand.New(rand.NewSource(7))
	var jobs []job
	for _, sh := range selftestShapes {
		for k := 0; k < sh.count; k++ {
			a := testmat.Generate(rng, sh.m, sh.n, (sh.n*4)/5, 1e-10)
			var opts *tsqrcp.Options
			label := fmt.Sprintf("ite %dx%d #%d", sh.m, sh.n, k)
			if sh.cqrrpt {
				opts = &tsqrcp.Options{Strategy: tsqrcp.StrategyCQRRPT, Seed: 42}
				label = fmt.Sprintf("cqrrpt %dx%d #%d", sh.m, sh.n, k)
			}
			jobs = append(jobs, job{label: label, a: a, opts: opts})
		}
	}

	want := make([]*tsqrcp.Factorization, len(jobs))
	for i, j := range jobs {
		f, err := tsqrcp.QRCP(j.a, j.opts)
		if err != nil {
			return fmt.Errorf("in-process %s: %w", j.label, err)
		}
		want[i] = f
	}

	got := make([]*tsqrcp.Factorization, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			got[i], errs[i] = c.Factor(context.Background(), service.Request{
				Tenant: "selftest", A: j.a, Options: j.opts})
		}(i, j)
	}
	wg.Wait()
	for i, j := range jobs {
		if errs[i] != nil {
			return fmt.Errorf("served %s: %w", j.label, errs[i])
		}
		if err := equalFact(got[i], want[i]); err != nil {
			return fmt.Errorf("%s: served result differs from in-process Engine.QRCP: %w", j.label, err)
		}
	}
	fmt.Printf("selftest: %d served factorizations bit-identical to in-process results\n", len(jobs))

	// 2. A deliberately past-deadline job must be rejected with the
	// distinct deadline error — not served late, not conflated with
	// overload or numerical failure.
	_, err = c.Factor(context.Background(), service.Request{
		Tenant: "selftest", A: testmat.Generate(rng, 2000, 32, 24, 1e-10),
		Timeout: time.Nanosecond})
	if !errors.Is(err, service.ErrDeadlineExceeded) {
		return fmt.Errorf("past-deadline job returned %v, want ErrDeadlineExceeded", err)
	}
	if errors.Is(err, service.ErrOverloaded) || errors.Is(err, service.ErrFailed) {
		return fmt.Errorf("deadline rejection %v is not distinct", err)
	}
	fmt.Println("selftest: past-deadline job rejected with distinct deadline error")

	// 3. The admission counters must reflect what just happened.
	st, err := c.Stats(context.Background())
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	// Admitted jobs: the shape mix and the past-deadline job.
	admitted := len(jobs) + 1
	if st.Accepted < int64(admitted) {
		return fmt.Errorf("server accepted %d jobs, want ≥ %d", st.Accepted, admitted)
	}
	if st.Completed < int64(len(jobs)) {
		return fmt.Errorf("server completed %d jobs, want ≥ %d", st.Completed, len(jobs))
	}
	if st.DeadlineExceeded < 1 {
		return fmt.Errorf("deadline_exceeded = %d, want ≥ 1", st.DeadlineExceeded)
	}
	if st.Batches >= int64(admitted) {
		return fmt.Errorf("batches = %d for %d jobs — size-bucketing never coalesced anything", st.Batches, admitted)
	}
	fmt.Printf("selftest: stats consistent (accepted %d, batches %d, deadline_exceeded %d)\n",
		st.Accepted, st.Batches, st.DeadlineExceeded)
	return nil
}

// equalFact compares two factorizations bit for bit.
func equalFact(got, want *tsqrcp.Factorization) error {
	if len(got.Perm) != len(want.Perm) {
		return fmt.Errorf("perm length %d vs %d", len(got.Perm), len(want.Perm))
	}
	for i := range want.Perm {
		if got.Perm[i] != want.Perm[i] {
			return fmt.Errorf("perm[%d] = %d vs %d", i, got.Perm[i], want.Perm[i])
		}
	}
	if got.Iterations != want.Iterations {
		return fmt.Errorf("iterations %d vs %d", got.Iterations, want.Iterations)
	}
	if err := equalDense("Q", got.Q, want.Q); err != nil {
		return err
	}
	return equalDense("R", got.R, want.R)
}

func equalDense(name string, a, b *mat.Dense) error {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return fmt.Errorf("%s shape %dx%d vs %dx%d", name, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return fmt.Errorf("%s(%d,%d) = %x vs %x", name, i, j,
					math.Float64bits(a.At(i, j)), math.Float64bits(b.At(i, j)))
			}
		}
	}
	return nil
}
