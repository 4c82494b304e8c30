package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	tsqrcp "repro"
	"repro/mat"
	"repro/metrics"
	"repro/service"
)

// Workload shapes, sized to the two cores' 2 MiB L2 caches of a Sapphire
// Rapids VM: on a host shared with other guests, contention for the
// shared L3 slowed a 16384×64 factorization (8 MiB) 2× for a minute at a
// time, a 2048×64 one 1.5×. ite-tall's 4096×64
// (2 MiB, 1 MiB a core) is the shortest matrix whose fused sweep still
// splits into two slots, one per core; cqrrpt-vtall has the same bytes in
// half the columns, the very tall regime the sketch is for.
// served-small's 512×16 jobs are 64 KiB, so its pool and references take
// 1 MiB and its 8 jobs in flight allocate about 4 MiB of wire and result
// buffers between them; a pool of 64 1024×32 jobs with 32 in flight
// (32 MiB of inputs and reference factors, about 60 MiB of buffers)
// slowed 1.5× with the host's contention where ite-tall held.
const (
	tallRows, tallCols          = 4096, 64
	vtallRows, vtallCols        = 8192, 32
	smallRows, smallCols        = 512, 16
	profileSigma                = 1e-12
	oocPanelRows                = 512 // 8 panels of tallRows in the out-of-core probe, so the prefetch overlaps
	servedPool                  = 8   // distinct matrices cycled through the served loop
	servedOutstanding           = 8   // jobs in flight
	servedConns                 = 2
	factorWarmupOps             = 8
	servedWarmupJobs            = 2 * servedOutstanding
	accuracyTol                 = 1e-13 // orthogonality and residual, ≈ 450u
	cqrrptSeed           uint64 = 7
	// structureSeed draws every workload's right singular vectors V (see
	// generate). With it Ite-CholQR-CP takes 4 iterations on each of
	// seeds 1–60 of ite-tall and 1–80 of the 512×16 pool matrices.
	structureSeed = 5
)

// engineWidth is the width of every engine whose ops are timed, the
// server's included. On a 2-vCPU guest the host sometimes runs the two
// vCPUs as hyperthreads of one core, where width 2 is no faster than
// width 1, and sometimes on two cores, where it is 1.8× faster; which,
// changes from minute to minute. Ite-CholQR-CP's p50 at width 2 thus
// read 15–17 or 30–35 ms by run (spread 27–77 % over ten runs), at
// width 1 26–30 ms (8 %). The traced run measures width nproc.
const engineWidth = 1

// rankOf is the numerical rank the σ-profile gives n columns: 48 of 64
// as in the paper's Eq. 17 experiments, and the same three quarters
// elsewhere.
func rankOf(n int) int { return 3 * n / 4 }

// workload is one named benchmark configuration. Its inputs and
// reference results exist before setUp is called.
type workload interface {
	// setUp brings the program to its serving state — engine, server and
	// connections, and a fixed count of checked warm-up ops. It is what
	// setup_s times.
	setUp() error
	// tearDown releases what setUp acquired; setUp may then run again.
	tearDown()
	// run drives the closed loop, one op per w.next(), until the window
	// closes, and returns once every issued op has completed.
	run(w *window)
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"ite-tall", "cqrrpt-vtall", "served-small"}

// newWorkload generates the named workload's inputs from seed, computes
// and checks their reference factorizations, and returns the workload
// with a checksum of its inputs.
func newWorkload(ctx context.Context, name string, seed int64, width int) (workload, uint64, error) {
	switch name {
	case "ite-tall":
		a := generate(structureSeed, seed, tallRows, tallCols, rankOf(tallCols), profileSigma)
		wl, err := newFactorWorkload(ctx, a, tsqrcp.Options{}, width)
		return wl, checksum(a), err
	case "cqrrpt-vtall":
		a := generate(structureSeed, seed, vtallRows, vtallCols, rankOf(vtallCols), profileSigma)
		opts := tsqrcp.Options{Strategy: tsqrcp.StrategyCQRRPT, Seed: cqrrptSeed}
		wl, err := newFactorWorkload(ctx, a, opts, width)
		return wl, checksum(a), err
	case "served-small":
		pool := make([]*mat.Dense, servedPool)
		for i := range pool {
			pool[i] = generate(structureSeed, seed*servedPool+int64(i), smallRows, smallCols, rankOf(smallCols), profileSigma)
		}
		wl, err := newServedWorkload(ctx, pool, servedOutstanding, width)
		return wl, checksum(pool...), err
	}
	return nil, 0, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// factorWorkload times single in-core factorizations of one matrix.
type factorWorkload struct {
	ctx   context.Context
	a     *mat.Dense
	opts  tsqrcp.Options
	width int
	ref   *tsqrcp.Factorization
	eng   *tsqrcp.Engine
}

func newFactorWorkload(ctx context.Context, a *mat.Dense, opts tsqrcp.Options, width int) (*factorWorkload, error) {
	ref, err := tsqrcp.NewEngine(width).QRCP(a, &opts)
	if err != nil {
		return nil, fmt.Errorf("reference factorization: %w", err)
	}
	if err := checkReference(a, ref, opts.Strategy, rankOf(a.Cols), width); err != nil {
		return nil, err
	}
	return &factorWorkload{ctx: ctx, a: a, opts: opts, width: width, ref: ref}, nil
}

func (f *factorWorkload) setUp() error {
	f.eng = tsqrcp.NewEngine(f.width).WithContext(f.ctx)
	return warmUp(f, factorWarmupOps)
}

func (f *factorWorkload) tearDown() { f.eng = nil }

func (f *factorWorkload) run(w *window) {
	for w.next() {
		t0 := time.Now()
		got, err := f.eng.QRCP(f.a, &f.opts)
		d := time.Since(t0)
		w.add(d, err == nil && sameFactor(got, f.ref, false))
	}
}

// servedWorkload drives an in-process qrcpd over loopback: servedConns
// connections multiplex `outstanding` closed-loop jobs, each replaced at
// once by the next matrix of the pool.
type servedWorkload struct {
	ctx         context.Context
	pool        []*mat.Dense
	refs        []*tsqrcp.Factorization
	outstanding int
	cfg         service.Config

	srv       *service.Server
	serveDone chan error
	conns     []*service.Client
	next      atomic.Int64 // pool cursor, shared by the closed-loop goroutines
}

func newServedWorkload(ctx context.Context, pool []*mat.Dense, outstanding, width int) (*servedWorkload, error) {
	eng := tsqrcp.NewEngine(width)
	s := &servedWorkload{ctx: ctx, pool: pool, outstanding: outstanding,
		refs: make([]*tsqrcp.Factorization, len(pool)), cfg: service.Config{Engine: eng, BatchSize: outstanding}}
	for i, a := range pool {
		ref, err := eng.QRCP(a, nil)
		if err != nil {
			return nil, fmt.Errorf("reference factorization of pool matrix %d: %w", i, err)
		}
		if err := checkReference(a, ref, tsqrcp.StrategyIteCholQRCP, rankOf(a.Cols), width); err != nil {
			return nil, fmt.Errorf("pool matrix %d: %w", i, err)
		}
		s.refs[i] = ref
	}
	return s, nil
}

func (s *servedWorkload) setUp() error {
	if err := s.start(); err != nil {
		return err
	}
	if err := warmUp(s, servedWarmupJobs); err != nil {
		s.tearDown()
		return err
	}
	return nil
}

// start brings up the server and dials the connections.
func (s *servedWorkload) start() error {
	s.srv = service.New(s.cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.serveDone = make(chan error, 1)
	go func() { s.serveDone <- s.srv.Serve(ln) }()
	for i := 0; i < servedConns; i++ {
		c, err := service.Dial(ln.Addr().String())
		if err != nil {
			s.tearDown()
			return err
		}
		s.conns = append(s.conns, c)
	}
	return nil
}

func (s *servedWorkload) tearDown() {
	for _, c := range s.conns {
		c.Close()
	}
	s.conns = nil
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Every job of the window has been answered by now; a drain that still
	// overruns is cut short by Shutdown itself, which is all tearDown needs.
	_ = s.srv.Shutdown(ctx)
	<-s.serveDone
}

func (s *servedWorkload) run(w *window) {
	var wg sync.WaitGroup
	wg.Add(s.outstanding)
	for g := 0; g < s.outstanding; g++ {
		c := s.conns[g%len(s.conns)]
		go func() {
			defer wg.Done()
			for w.next() {
				i := int(s.next.Add(1)-1) % len(s.pool)
				t0 := time.Now()
				got, err := c.Factor(s.ctx, service.Request{A: s.pool[i]})
				d := time.Since(t0)
				w.add(d, err == nil && sameFactor(got, s.refs[i], true))
			}
		}()
	}
	wg.Wait()
}

// warmUp runs a fixed count of ops (never a timed loop, which would end
// on an op boundary and quantize setup_s by a whole op) and requires
// every one to succeed with the reference output.
func warmUp(wl workload, ops int) error {
	w := newWindow(ops, ops)
	wl.run(w)
	if n := w.failed.Load(); n > 0 {
		return fmt.Errorf("%d of %d warm-up ops failed or disagreed with the reference", n, ops)
	}
	return nil
}

// sameFactor reports whether got is bit-identical to ref in R and the
// pivots, and in Q too when withQ is set.
func sameFactor(got, ref *tsqrcp.Factorization, withQ bool) bool {
	if got == nil || len(got.Perm) != len(ref.Perm) || !sameBits(got.R, ref.R) {
		return false
	}
	for j, p := range ref.Perm {
		if got.Perm[j] != p {
			return false
		}
	}
	return !withQ || sameBits(got.Q, ref.Q)
}

func sameBits(a, b *mat.Dense) bool {
	if a == nil || b == nil || a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra := a.Data[i*a.Stride : i*a.Stride+a.Cols]
		rb := b.Data[i*b.Stride : i*b.Stride+b.Cols]
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				return false
			}
		}
	}
	return true
}

// checkReference holds a reference factorization to the paper's accuracy
// claims: orthogonality and residual at O(u), and the pivots of
// Householder QRCP up to the numerical rank k — exactly for
// Ite-CholQR-CP, and through the CQRRPT rank-profile gate
// (metrics.PivotQuality) for the sketched strategy, whose pivots
// legitimately differ. k is the rank the σ-profile was built with: past
// it, R's diagonal is rounding noise (≈ √m·u), which no pivot order
// ranks reliably.
func checkReference(a *mat.Dense, ref *tsqrcp.Factorization, strategy tsqrcp.Strategy, k, width int) error {
	orth := metrics.Orthogonality(ref.Q)
	resid := metrics.Residual(a, ref.Q, ref.R, ref.Perm)
	if !(orth <= accuracyTol) || !(resid <= accuracyTol) {
		return fmt.Errorf("reference accuracy: orthogonality %.3g, residual %.3g, want ≤ %g", orth, resid, accuracyTol)
	}
	hq := tsqrcp.NewEngine(width).HouseholderQRCP(a, nil)
	if strategy == tsqrcp.StrategyCQRRPT {
		if q := metrics.PivotQuality(ref.R, hq.R, k); !(q <= metrics.CQRRPTPivotTol) {
			return fmt.Errorf("reference pivots: quality %.3g over rank %d, want ≤ %g", q, k, metrics.CQRRPTPivotTol)
		}
		return nil
	}
	if agree := metrics.CountCorrectPrefix(ref.Perm, hq.Perm); agree < k {
		return fmt.Errorf("reference pivots agree with Householder QRCP on %d, want the numerical rank %d", agree, k)
	}
	return nil
}

// writeSynced writes a in the binary file format and syncs it, so no
// write-back of the input is left to overlap the timed window.
func writeSynced(a *mat.Dense, path string) error {
	if err := a.WriteBinaryFile(path); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
