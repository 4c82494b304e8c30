// Package service is the network front door of the factorization
// engine: a length-prefixed TCP protocol (proto.go) behind an
// admission-controlled server that size-buckets incoming jobs and
// flushes each bucket through Engine.QRCPBatch on a fill-or-deadline
// trigger (bucket.go), plus the matching Go client (client.go).
//
// The server enforces, in admission order:
//
//   - graceful drain: once Shutdown begins, new jobs get
//     StatusShuttingDown while queued and in-flight jobs finish;
//   - a bounded admission queue: at most MaxPending jobs are queued or
//     in flight, and the excess is rejected immediately with
//     StatusOverloaded (explicit backpressure, never unbounded
//     buffering);
//   - per-tenant engine-width budgets: one tenant can hold at most
//     TenantWidth admitted jobs at a time, so a single hot tenant
//     cannot occupy the whole engine;
//   - per-job deadlines, propagated into the engine's cooperative
//     cancellation (Engine.WithContext) through the batch context.
//
// Every decision increments one server-local counter, read through
// Server.Stats (cmd/qrcpd prints it on exit); internal/trace covers the
// kernel layers underneath. See DESIGN.md §12.
package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	tsqrcp "repro"
	"repro/mat"
)

// Config parameterizes a Server. The zero value of every field selects
// a sensible default.
type Config struct {
	// Engine runs the factorizations; nil selects the default engine
	// (full parallel width).
	Engine *tsqrcp.Engine
	// MaxPending bounds the admission queue: jobs queued in buckets plus
	// jobs in flight. Beyond it, jobs are rejected with
	// StatusOverloaded. Default 256.
	MaxPending int
	// TenantWidth is the per-tenant engine-width budget: the maximum
	// number of one tenant's jobs admitted (queued or running) at a
	// time. Beyond it, the tenant's jobs are rejected with
	// StatusOverloaded. Default 64.
	TenantWidth int
	// BatchSize is the bucket fill trigger: a size bucket dispatches
	// through Engine.QRCPBatch as soon as it holds this many jobs.
	// Default 32.
	BatchSize int
	// FlushInterval is the bucket deadline trigger: a bucket dispatches
	// at most this long after its first job arrived, full or not. It is
	// the latency floor a lone job pays for batching. Default 2ms.
	FlushInterval time.Duration
	// MaxRows/MaxCols bound accepted job shapes. Defaults 1<<22 and
	// 1024.
	MaxRows, MaxCols int
	// MaxFrameBytes bounds one wire frame. Default DefaultMaxFrameBytes.
	MaxFrameBytes int
}

func (c Config) withDefaults() Config {
	if c.MaxPending == 0 {
		c.MaxPending = 256
	}
	if c.TenantWidth == 0 {
		c.TenantWidth = 64
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = 2 * time.Millisecond
	}
	if c.MaxRows == 0 {
		c.MaxRows = 1 << 22
	}
	if c.MaxCols == 0 {
		c.MaxCols = 1024
	}
	if c.MaxFrameBytes == 0 {
		c.MaxFrameBytes = DefaultMaxFrameBytes
	}
	return c
}

// serverStats is the atomic counter block behind Stats.
type serverStats struct {
	accepted       atomic.Int64
	rejectedQueue  atomic.Int64
	rejectedTenant atomic.Int64
	deadline       atomic.Int64
	completed      atomic.Int64
	failed         atomic.Int64
	batches        atomic.Int64
	flushFull      atomic.Int64
	flushDeadline  atomic.Int64
}

// Stats is a point-in-time snapshot of the server's admission and
// batching counters — the service-level observability surface, also
// queryable over the wire via Client.Stats.
type Stats struct {
	// Accepted counts jobs admitted past the front door.
	Accepted int64 `json:"accepted"`
	// RejectedQueue counts jobs rejected because the bounded admission
	// queue was full.
	RejectedQueue int64 `json:"rejected_queue"`
	// RejectedTenant counts jobs rejected by a tenant's width budget.
	RejectedTenant int64 `json:"rejected_tenant"`
	// DeadlineExceeded counts admitted jobs that missed their deadline.
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	// Completed counts jobs answered with StatusOK.
	Completed int64 `json:"completed"`
	// Failed counts jobs answered with StatusFailed.
	Failed int64 `json:"failed"`
	// Batches counts bucket flushes dispatched through Engine.QRCPBatch.
	Batches int64 `json:"batches"`
	// FlushFull/FlushDeadline split Batches by trigger.
	FlushFull     int64 `json:"flush_full"`
	FlushDeadline int64 `json:"flush_deadline"`
	// QueueDepth is the instantaneous number of admitted jobs not yet
	// answered (waiting in buckets or factoring).
	QueueDepth int64 `json:"queue_depth"`
	// Buckets/BucketJobs are the instantaneous bucket occupancy: live
	// size buckets and the jobs waiting in them.
	Buckets    int `json:"buckets"`
	BucketJobs int `json:"bucket_jobs"`
	// Draining reports whether Shutdown has begun.
	Draining bool `json:"draining"`
}

// Server serves factorization jobs over the wire protocol of proto.go.
// Create with New, run with Serve or ListenAndServe, stop with
// Shutdown.
type Server struct {
	cfg     Config
	buckets *bucketer
	stats   serverStats

	baseCtx context.Context
	cancel  context.CancelFunc

	pending  atomic.Int64 // admitted jobs not yet answered
	draining atomic.Bool

	mu      sync.Mutex
	ln      net.Listener
	conns   map[net.Conn]struct{}
	tenants map[string]int // admitted jobs per tenant

	jobs sync.WaitGroup // one per admitted job until its response is written
}

// New returns an unstarted server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		baseCtx: ctx,
		cancel:  cancel,
		conns:   make(map[net.Conn]struct{}),
		tenants: make(map[string]int),
	}
	s.buckets = newBucketer(cfg.Engine, cfg.BatchSize, cfg.FlushInterval, ctx, &s.stats)
	return s
}

// ListenAndServe listens on addr ("host:port") and serves until
// Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown (which returns
// ErrServerClosed) or a listener error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		// Shutdown closes the listener, which unblocks Accept; the
		// context check covers a hard cancel that raced the close.
		if s.baseCtx.Err() != nil {
			return ErrServerClosed
		}
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// Addr reports the listening address, nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Stats snapshots the admission and batching counters.
func (s *Server) Stats() Stats {
	buckets, jobs := s.buckets.occupancy()
	return Stats{
		Accepted:         s.stats.accepted.Load(),
		RejectedQueue:    s.stats.rejectedQueue.Load(),
		RejectedTenant:   s.stats.rejectedTenant.Load(),
		DeadlineExceeded: s.stats.deadline.Load(),
		Completed:        s.stats.completed.Load(),
		Failed:           s.stats.failed.Load(),
		Batches:          s.stats.batches.Load(),
		FlushFull:        s.stats.flushFull.Load(),
		FlushDeadline:    s.stats.flushDeadline.Load(),
		QueueDepth:       s.pending.Load(),
		Buckets:          buckets,
		BucketJobs:       jobs,
		Draining:         s.draining.Load(),
	}
}

// Shutdown drains the server gracefully: stop accepting connections,
// reject new jobs with StatusShuttingDown, flush every waiting bucket
// immediately, and wait — up to ctx — for all admitted jobs to be
// answered. Past ctx the engine context is cancelled, which stops
// in-flight factorizations cooperatively, and remaining connections are
// closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.buckets.flushAll()

	done := make(chan struct{})
	//repolint:allow ctxcancel — bounded by the ctx select below; the waiter goroutine exists to make Wait selectable
	go func() {
		s.jobs.Wait()
		s.buckets.wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		// Hard stop: cancel in-flight factorizations and wait for their
		// (StatusShuttingDown) responses.
		s.cancel()
		<-done
	}
	s.cancel()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	return err
}

// connWriter serializes frames onto one connection.
type connWriter struct {
	mu   sync.Mutex
	conn io.Writer
	err  error
}

// send writes one frame, then returns it to the frame pool; after a
// write error the connection is dead and further sends are dropped. It
// reports the connection's write error, if any.
func (w *connWriter) send(payload []byte) error {
	w.mu.Lock()
	if w.err == nil {
		w.err = writeFrame(w.conn, payload)
	}
	err := w.err
	w.mu.Unlock()
	putFrame(payload)
	return err
}

// handleConn runs one connection: decode frames, admit or reject jobs,
// hand admitted jobs to the bucketer, answer stats queries. Responses
// to pipelined jobs are written as their batches complete, matched by
// job id.
func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	w := &connWriter{conn: conn}
	br := bufio.NewReader(conn)
	var inflight sync.WaitGroup
	lim := Limits{MaxRows: s.cfg.MaxRows, MaxCols: s.cfg.MaxCols, MaxFrameBytes: s.cfg.MaxFrameBytes}
	for {
		// A hard stop cancels baseCtx; stop reading new frames so the
		// connection drains instead of admitting doomed jobs.
		if s.baseCtx.Err() != nil {
			break
		}
		payload, err := readFrame(br, s.cfg.MaxFrameBytes)
		if err != nil {
			// EOF and closed-conn errors end the connection silently; a
			// too-large frame gets a best-effort rejection first.
			if errors.Is(err, errFrameTooLarge) {
				w.send(encodeResult(&jobResult{Status: StatusInvalid, Msg: err.Error()}))
			}
			break
		}
		if len(payload) == 0 {
			break
		}
		// Every branch is done with the payload once it is decoded: a
		// job's matrix is copied into a workspace.
		switch msg := payload[0]; msg {
		case msgJob:
			job, err := decodeJob(payload[1:], lim)
			// The id is the first body field; echo it when present so
			// the client can match the rejection to its call.
			id := (&reader{buf: payload[1:]}).u64()
			putFrame(payload)
			if err != nil {
				w.send(encodeResult(&jobResult{ID: id, Status: StatusInvalid, Msg: err.Error()}))
				continue
			}
			s.admit(job, w, &inflight)
		case msgStats:
			id := (&reader{buf: payload[1:]}).u64()
			putFrame(payload)
			blob, err := json.Marshal(s.Stats())
			if err != nil {
				blob = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
			}
			w.send(encodeStatsResult(id, blob))
		default:
			putFrame(payload)
			w.send(encodeResult(&jobResult{Status: StatusInvalid,
				Msg: fmt.Sprintf("service: unknown message type %d", msg)}))
		}
	}
	// Don't tear down the connection state while responses for admitted
	// jobs are still pending; their deliver closures write to w.
	inflight.Wait()
	conn.Close()
}

// admit applies the admission-control chain to one decoded job and
// either rejects it immediately or enqueues it into its size bucket.
func (s *Server) admit(job *jobRequest, w *connWriter, inflight *sync.WaitGroup) {
	reject := func(st Status, msg string) {
		mat.PutWorkspace(job.A)
		w.send(encodeResult(&jobResult{ID: job.ID, Status: st, Msg: msg}))
	}
	if s.draining.Load() {
		reject(StatusShuttingDown, "server is draining")
		return
	}
	// Bounded queue: reserve a slot or reject; never buffer beyond
	// MaxPending.
	if s.pending.Add(1) > int64(s.cfg.MaxPending) {
		s.pending.Add(-1)
		s.stats.rejectedQueue.Add(1)
		reject(StatusOverloaded, fmt.Sprintf("admission queue full (%d pending)", s.cfg.MaxPending))
		return
	}
	// Tenant width budget.
	s.mu.Lock()
	if s.tenants[job.Tenant] >= s.cfg.TenantWidth {
		s.mu.Unlock()
		s.pending.Add(-1)
		s.stats.rejectedTenant.Add(1)
		reject(StatusOverloaded, fmt.Sprintf("tenant %q over its width budget (%d)", job.Tenant, s.cfg.TenantWidth))
		return
	}
	s.tenants[job.Tenant]++
	s.mu.Unlock()

	s.stats.accepted.Add(1)
	s.jobs.Add(1)
	inflight.Add(1)

	var deadline time.Time
	if job.Timeout > 0 {
		deadline = time.Now().Add(job.Timeout)
	}
	tenant := job.Tenant
	var once sync.Once
	s.buckets.enqueue(&pendingJob{
		req:      job,
		deadline: deadline,
		deliver: func(res *jobResult) {
			once.Do(func() {
				switch res.Status {
				case StatusOK:
					s.stats.completed.Add(1)
				case StatusFailed:
					s.stats.failed.Add(1)
				}
				// Release the job's admission slots before its answer
				// goes out, so a client that has its answer sees Stats
				// without it.
				s.mu.Lock()
				if s.tenants[tenant]--; s.tenants[tenant] <= 0 {
					delete(s.tenants, tenant)
				}
				s.mu.Unlock()
				s.pending.Add(-1)
				w.send(encodeResult(res))
				inflight.Done()
				s.jobs.Done()
			})
		},
	})
}
