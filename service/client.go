package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	tsqrcp "repro"
	"repro/mat"
)

// Request is one factorization job for Client.Factor.
type Request struct {
	// Tenant identifies the caller for the server's per-tenant width
	// budget; empty is the anonymous tenant.
	Tenant string
	// A is the tall-skinny matrix to factor. It is serialized, not
	// shared, so the caller may reuse it immediately.
	A *mat.Dense
	// Options select strategy, tolerance and seed exactly as for the
	// in-process tsqrcp.QRCP; nil means defaults.
	Options *tsqrcp.Options
	// Timeout is an explicit job deadline sent to the server. Zero
	// derives the wire deadline from ctx's deadline instead; negative is
	// invalid. The served factorization is never delivered after the
	// deadline — the job resolves to ErrDeadlineExceeded.
	Timeout time.Duration
}

// Client is a connection to a Server. It is safe for concurrent use:
// calls are pipelined over the single connection and matched to
// responses by job id, so N goroutines sharing one Client keep N jobs
// in flight — which is exactly what feeds the server's size buckets.
type Client struct {
	conn net.Conn
	w    *connWriter

	mu      sync.Mutex
	nextID  uint64
	waiters map[uint64]chan clientMsg
	readErr error
	closed  bool

	maxFrame int
}

// clientMsg is one routed response: a job result or a raw stats blob.
type clientMsg struct {
	res   *jobResult
	stats []byte
}

// Dial connects to a server at addr ("host:port").
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:     conn,
		w:        &connWriter{conn: conn},
		waiters:  make(map[uint64]chan clientMsg),
		maxFrame: DefaultMaxFrameBytes,
	}
	//repolint:allow ctxcancel — connection-lifetime reader; Close() unblocks readFrame and ends it
	go c.readLoop()
	return c, nil
}

// Close tears down the connection; outstanding calls fail.
func (c *Client) Close() error { return c.conn.Close() }

// readLoop routes response frames to waiting calls by job id.
func (c *Client) readLoop() {
	br := bufio.NewReader(c.conn)
	//repolint:allow ctxcancel — per-call deadlines live in Factor; the loop ends when Close() breaks readFrame
	for {
		payload, err := readFrame(br, c.maxFrame)
		if err != nil {
			c.failAll(err)
			return
		}
		if len(payload) == 0 {
			continue
		}
		switch payload[0] {
		case msgResult:
			// decodeResult copies Q, R and Perm out, so the frame is free.
			res, err := decodeResult(payload[1:])
			putFrame(payload)
			if err != nil {
				c.failAll(err)
				return
			}
			c.route(res.ID, clientMsg{res: res})
		case msgStatsResult:
			// The blob is the frame's own tail and goes to the caller: this
			// frame is never returned to the pool.
			r := &reader{buf: payload[1:]}
			id := r.u64()
			if r.err != nil {
				c.failAll(r.err)
				return
			}
			c.route(id, clientMsg{stats: payload[9:]})
		default:
			putFrame(payload)
		}
	}
}

func (c *Client) route(id uint64, m clientMsg) {
	c.mu.Lock()
	ch := c.waiters[id]
	delete(c.waiters, id)
	c.mu.Unlock()
	if ch != nil {
		ch <- m
	}
}

// failAll wakes every outstanding call with the connection error.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	c.readErr = err
	c.closed = true
	waiters := c.waiters
	c.waiters = make(map[uint64]chan clientMsg)
	c.mu.Unlock()
	for _, ch := range waiters {
		close(ch)
	}
}

// register allocates a job id and its response channel.
func (c *Client) register() (uint64, chan clientMsg, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		err := c.readErr
		if err == nil {
			err = net.ErrClosed
		}
		return 0, nil, fmt.Errorf("service: connection closed: %w", err)
	}
	c.nextID++
	id := c.nextID
	ch := make(chan clientMsg, 1)
	c.waiters[id] = ch
	return id, ch, nil
}

// unregister abandons a call (local ctx expiry); a late response is
// dropped by route.
func (c *Client) unregister(id uint64) {
	c.mu.Lock()
	delete(c.waiters, id)
	c.mu.Unlock()
}

// await blocks for the routed response or ctx.
func (c *Client) await(ctx context.Context, id uint64, ch chan clientMsg) (clientMsg, error) {
	select {
	case m, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.readErr
			c.mu.Unlock()
			return clientMsg{}, fmt.Errorf("service: connection lost: %w", err)
		}
		return m, nil
	case <-ctx.Done():
		c.unregister(id)
		return clientMsg{}, ctx.Err()
	}
}

// Factor submits one job and blocks for its result. The returned
// errors are the sentinel values of this package (ErrOverloaded,
// ErrDeadlineExceeded, ...) for server-side rejections, or ctx.Err()
// when the local context fires first. On success the factorization is
// bit-identical to running tsqrcp.QRCP(req.A, req.Options) in process.
func (c *Client) Factor(ctx context.Context, req Request) (*tsqrcp.Factorization, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if req.A == nil || req.A.Rows < req.A.Cols || req.A.Cols < 1 {
		return nil, fmt.Errorf("%w: need a tall-skinny matrix", ErrInvalid)
	}
	timeout := req.Timeout
	if timeout == 0 {
		if dl, ok := ctx.Deadline(); ok {
			timeout = time.Until(dl)
			if timeout <= 0 {
				return nil, context.DeadlineExceeded
			}
		}
	}
	id, ch, err := c.register()
	if err != nil {
		return nil, err
	}
	job := &jobRequest{ID: id, Tenant: req.Tenant, Timeout: timeout}
	if o := req.Options; o != nil {
		job.Strategy = o.Strategy
		job.Seed = o.Seed
		job.PivotTol = o.PivotTol
	}
	job.A = req.A
	if werr := c.w.send(encodeJob(job)); werr != nil {
		c.unregister(id)
		return nil, fmt.Errorf("service: send: %w", werr)
	}
	m, err := c.await(ctx, id, ch)
	if err != nil {
		return nil, err
	}
	res := m.res
	if res == nil {
		return nil, fmt.Errorf("service: protocol error: stats response to job %d", id)
	}
	if res.Status != StatusOK {
		return nil, statusErr(res.Status, res.Msg)
	}
	return &tsqrcp.Factorization{
		Q:          res.Q,
		R:          res.R,
		Perm:       res.Perm,
		Rank:       res.R.Rows,
		Iterations: res.Iterations,
	}, nil
}

// Stats queries the server's admission/batching counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	id, ch, err := c.register()
	if err != nil {
		return Stats{}, err
	}
	c.w.send(encodeStatsRequest(id))
	m, err := c.await(ctx, id, ch)
	if err != nil {
		return Stats{}, err
	}
	if m.stats == nil {
		if m.res != nil && m.res.Status != StatusOK {
			return Stats{}, statusErr(m.res.Status, m.res.Msg)
		}
		return Stats{}, fmt.Errorf("service: protocol error: job response to stats query %d", id)
	}
	var st Stats
	if err := json.Unmarshal(m.stats, &st); err != nil {
		return Stats{}, fmt.Errorf("service: bad stats payload: %w", err)
	}
	return st, nil
}
