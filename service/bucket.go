package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	tsqrcp "repro"
	"repro/mat"
)

// shapeKey groups jobs that can share one Engine.QRCPBatch call:
// identical shape and identical Options, so the bucket runs as one call
// with one *Options. Nothing else is shared per bucket — workspaces are
// pooled process-wide by size class — so what bucketing saves is one
// dispatch per job.
type shapeKey struct {
	m, n     int
	strategy tsqrcp.Strategy
	tolBits  uint64
	seed     uint64
}

// pendingJob is one admitted job waiting in a bucket or in flight.
type pendingJob struct {
	req      *jobRequest
	deadline time.Time // zero when the job has none
	// deliver writes the response and releases the job's admission slot.
	// Called exactly once, from the dispatch goroutine (or the expiry
	// path).
	deliver func(*jobResult)
}

// bucketer size-buckets admitted jobs and flushes each bucket through
// Engine.QRCPBatch on a fill-or-deadline trigger: a bucket dispatches
// as soon as it holds batchSize jobs, or an adaptive deadline after its
// first job arrived, whichever comes first. The deadline adapts per
// shape key to the observed fill latency (see adaptiveInterval), with
// the configured flushInterval as its upper clamp.
type bucketer struct {
	eng           *tsqrcp.Engine
	batchSize     int
	flushInterval time.Duration
	baseCtx       context.Context

	mu      sync.Mutex
	buckets map[shapeKey]*bucket
	// fillEWMA estimates, per shape key, how long a bucket takes to
	// fill — the adaptive flush deadline derives from it.
	fillEWMA map[shapeKey]time.Duration

	// dispatch tracks in-flight batch goroutines for graceful drain.
	dispatch sync.WaitGroup

	stats *serverStats
}

type bucket struct {
	jobs  []*pendingJob
	start time.Time // arrival of the bucket's first job
	timer *time.Timer
}

const (
	// fillHistoryMax bounds the EWMA map: a server scanned with
	// endlessly varying shapes keeps the estimates for the first
	// fillHistoryMax keys and treats the rest as no-history (configured
	// interval), rather than growing without bound.
	fillHistoryMax = 1024
	// fillFloorDiv sets the adaptive deadline's lower clamp at
	// flushInterval/fillFloorDiv, so a hot key never spins the timer
	// arbitrarily fast.
	fillFloorDiv = 16
)

// observeFill folds one fill-latency observation into the key's EWMA
// (α = ¼). Deadline flushes observe the configured interval — the
// censored "did not fill in time" value — so a key whose traffic dries
// up decays back toward the configured deadline instead of keeping a
// stale fast estimate forever. Caller holds b.mu.
func (b *bucketer) observeFill(key shapeKey, d time.Duration) {
	if d < 0 {
		d = 0
	}
	old, ok := b.fillEWMA[key]
	if !ok {
		if len(b.fillEWMA) >= fillHistoryMax {
			return
		}
		b.fillEWMA[key] = d
		return
	}
	b.fillEWMA[key] = old - old/4 + d/4
}

// adaptiveInterval picks the deadline-trigger interval for a key:
// twice the estimated fill latency — enough slack that a normally
// filling bucket still flushes on the fill trigger — clamped to
// [flushInterval/fillFloorDiv, flushInterval]. A key with no history
// waits the full configured interval. The adaptation only moves the
// latency/throughput trade-off; results are unaffected.
func (b *bucketer) adaptiveInterval(key shapeKey) time.Duration {
	ewma, ok := b.fillEWMA[key]
	if !ok {
		return b.flushInterval
	}
	iv := 2 * ewma
	if floor := b.flushInterval / fillFloorDiv; iv < floor {
		iv = floor
	}
	if iv > b.flushInterval {
		iv = b.flushInterval
	}
	return iv
}

func newBucketer(eng *tsqrcp.Engine, batchSize int, flushInterval time.Duration, baseCtx context.Context, stats *serverStats) *bucketer {
	return &bucketer{
		eng:           eng,
		batchSize:     batchSize,
		flushInterval: flushInterval,
		baseCtx:       baseCtx,
		buckets:       make(map[shapeKey]*bucket),
		fillEWMA:      make(map[shapeKey]time.Duration),
		stats:         stats,
	}
}

// key derives the bucket key for a job, normalizing fields the strategy
// ignores (the seed only differentiates CQRRPT jobs) so equivalent jobs
// share a bucket.
func (b *bucketer) key(j *jobRequest) shapeKey {
	k := shapeKey{
		m:        j.A.Rows,
		n:        j.A.Cols,
		strategy: j.Strategy,
		tolBits:  math.Float64bits(j.PivotTol),
		seed:     j.Seed,
	}
	if j.Strategy != tsqrcp.StrategyCQRRPT {
		k.seed = 0
	}
	return k
}

// enqueue adds an admitted job to its bucket, dispatching the bucket
// when the fill trigger fires and arming the deadline trigger when the
// job is the bucket's first.
func (b *bucketer) enqueue(j *pendingJob) {
	key := b.key(j.req)
	b.mu.Lock()
	bk := b.buckets[key]
	if bk == nil {
		bk = &bucket{}
		b.buckets[key] = bk
	}
	bk.jobs = append(bk.jobs, j)
	if len(bk.jobs) == 1 {
		bk.start = time.Now()
	}
	if len(bk.jobs) >= b.batchSize {
		jobs := bk.jobs
		bk.jobs = nil
		if bk.timer != nil {
			bk.timer.Stop()
			bk.timer = nil
		}
		delete(b.buckets, key)
		b.observeFill(key, time.Since(bk.start))
		b.stats.flushFull.Add(1)
		b.spawn(key, jobs)
		b.mu.Unlock()
		return
	}
	if len(bk.jobs) == 1 {
		bk.timer = time.AfterFunc(b.adaptiveInterval(key), func() { b.flushKey(key) })
	}
	b.mu.Unlock()
}

// flushKey is the deadline trigger: dispatch whatever the bucket holds.
func (b *bucketer) flushKey(key shapeKey) {
	b.mu.Lock()
	bk := b.buckets[key]
	if bk == nil || len(bk.jobs) == 0 {
		delete(b.buckets, key)
		b.mu.Unlock()
		return
	}
	jobs := bk.jobs
	bk.jobs = nil
	delete(b.buckets, key)
	b.observeFill(key, b.flushInterval)
	b.stats.flushDeadline.Add(1)
	b.spawn(key, jobs)
	b.mu.Unlock()
}

// flushAll dispatches every waiting bucket immediately (graceful drain).
func (b *bucketer) flushAll() {
	b.mu.Lock()
	for key, bk := range b.buckets {
		if bk.timer != nil {
			bk.timer.Stop()
		}
		if len(bk.jobs) > 0 {
			jobs := bk.jobs
			bk.jobs = nil
			b.spawn(key, jobs)
		}
		delete(b.buckets, key)
	}
	b.mu.Unlock()
}

// wait blocks until every dispatched batch has delivered its results.
func (b *bucketer) wait() { b.dispatch.Wait() }

// occupancy reports the number of live buckets and jobs waiting in them.
func (b *bucketer) occupancy() (buckets, jobs int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, bk := range b.buckets {
		if len(bk.jobs) > 0 {
			buckets++
			jobs += len(bk.jobs)
		}
	}
	return buckets, jobs
}

// spawn launches the batch dispatch goroutine. Caller holds b.mu; the
// WaitGroup add happens before unlock so drain cannot miss the batch.
func (b *bucketer) spawn(key shapeKey, jobs []*pendingJob) {
	b.dispatch.Add(1)
	go b.run(key, jobs)
}

// run executes one flushed batch: drop already-expired jobs, factor the
// rest through Engine.QRCPBatch with the jobs' deadlines propagated into
// the engine context, and deliver per-job results. Once every job is
// answered, their decoded matrices go back to the workspace pool.
func (b *bucketer) run(key shapeKey, jobs []*pendingJob) {
	defer b.dispatch.Done()
	b.stats.batches.Add(1)
	defer func() {
		for _, j := range jobs {
			mat.PutWorkspace(j.req.A)
		}
	}()

	// Admission-queue deadline check: a job whose deadline passed while
	// it waited in the bucket is rejected without compute.
	now := time.Now()
	live := make([]*pendingJob, 0, len(jobs))
	for _, j := range jobs {
		if !j.deadline.IsZero() && now.After(j.deadline) {
			b.expire(j)
			continue
		}
		live = append(live, j)
	}
	if len(live) == 0 {
		return
	}

	// Deadline propagation into the engine: the batch context carries
	// the latest member deadline, so the engine's cooperative
	// cancellation fires once no member wants the result anymore. (A
	// single-job bucket therefore runs under exactly that job's
	// deadline.) Jobs whose own deadline passes mid-batch while others
	// keep it alive are expired at delivery below: a response after the
	// deadline is never StatusOK.
	ctx := b.baseCtx
	var cancel context.CancelFunc
	latest, haveAll := time.Time{}, true
	for _, j := range live {
		if j.deadline.IsZero() {
			haveAll = false
			break
		}
		if j.deadline.After(latest) {
			latest = j.deadline
		}
	}
	if haveAll {
		ctx, cancel = context.WithDeadline(ctx, latest)
		defer cancel()
	}

	problems := make([]*mat.Dense, len(live))
	for i, j := range live {
		problems[i] = j.req.A
	}
	results, _ := b.eng.QRCPBatch(ctx, problems, live[0].req.options())

	now = time.Now()
	for i, j := range live {
		res := results[i]
		if !j.deadline.IsZero() && (errors.Is(res.Err, context.DeadlineExceeded) || now.After(j.deadline)) {
			b.expire(j)
			continue
		}
		switch {
		case res.Err == nil && res.F.Rank < j.req.A.Cols:
			j.deliver(&jobResult{ID: j.req.ID, Status: StatusFailed,
				Msg: fmt.Sprintf("service: matrix has rank %d < %d columns", res.F.Rank, j.req.A.Cols)})
		case res.Err == nil:
			j.deliver(&jobResult{
				ID:         j.req.ID,
				Status:     StatusOK,
				Iterations: res.F.Iterations,
				Perm:       res.F.Perm,
				Q:          res.F.Q,
				R:          res.F.R,
			})
		case errors.Is(res.Err, context.Canceled):
			// The server context was cancelled (hard shutdown past the
			// drain window).
			j.deliver(&jobResult{ID: j.req.ID, Status: StatusShuttingDown, Msg: res.Err.Error()})
		case errors.Is(res.Err, context.DeadlineExceeded):
			b.expire(j)
		default:
			j.deliver(&jobResult{ID: j.req.ID, Status: StatusFailed, Msg: res.Err.Error()})
		}
	}
}

// expire delivers a deadline-exceeded result.
func (b *bucketer) expire(j *pendingJob) {
	b.stats.deadline.Add(1)
	j.deliver(&jobResult{ID: j.req.ID, Status: StatusDeadlineExceeded, Msg: "deadline exceeded before a result was produced"})
}
