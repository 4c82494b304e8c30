package tsqrcp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/mat"
)

// BatchOptions control QRCPBatch.
type BatchOptions struct {
	// Options apply to every problem in the batch. Options.Workers, when
	// set, bounds the width of each individual factorization; when zero,
	// the engine's width is divided evenly among the concurrent shards.
	Options
	// Concurrency is the number of problems factored at once. 0 selects
	// min(len(problems), engine width): small batches get one shard per
	// problem, large batches one shard per core.
	Concurrency int
}

// BatchResult is the outcome of one problem in a QRCPBatch call.
type BatchResult struct {
	// F is the factorization, nil if the problem failed or was skipped.
	F *Factorization
	// Err is the per-problem error: ErrStall/ErrBreakdown for a numerical
	// failure, ctx.Err() for problems not finished before cancellation,
	// or a wrapped panic message for invalid inputs (e.g. a wide matrix).
	Err error
}

// QRCPBatch factors a slice of independent tall-skinny problems — the
// many-small-matrices serving workload — by sharding them across the
// persistent worker pool. Problems are claimed dynamically (an atomic
// cursor, so a slow problem never blocks the rest of the batch) and each
// factorization runs with 1/Concurrency of the engine's width unless
// Options.Workers pins a per-problem width explicitly.
//
// Errors are per-problem: one singular or invalid matrix does not abort
// its neighbors, it just sets results[i].Err. Cancellation is
// cooperative and checked at the stage boundaries of the Ite-CholQR-CP
// loop: once ctx is done, running factorizations return early, unclaimed
// problems are skipped with results[i].Err = ctx.Err(), and QRCPBatch
// itself returns ctx.Err() alongside the partial results. A nil ctx is
// treated as context.Background().
func (e *Engine) QRCPBatch(ctx context.Context, problems []*mat.Dense, opts *BatchOptions) ([]BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]BatchResult, len(problems))
	if len(problems) == 0 {
		return results, ctx.Err()
	}

	width := e.Workers()
	conc := 0
	var o *Options
	if opts != nil {
		conc = opts.Concurrency
		o = &opts.Options
	}
	if conc < 1 {
		conc = min(len(problems), width)
	}
	conc = min(conc, len(problems))
	perProblem := max(1, width/conc)
	if o != nil && o.Workers > 0 {
		perProblem = o.Workers
	}
	shard := &Engine{pe: e.eng().WithContext(ctx).WithWorkers(perProblem)}

	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(conc)
	for s := 0; s < conc; s++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(problems) {
					return
				}
				if err := ctx.Err(); err != nil {
					results[i].Err = err
					continue
				}
				results[i].F, results[i].Err = factorOne(shard, problems[i], o, i)
			}
		}()
	}
	wg.Wait()
	return results, ctx.Err()
}

// QRCPBatch runs the batch on the default engine; see Engine.QRCPBatch.
func QRCPBatch(ctx context.Context, problems []*mat.Dense, opts *BatchOptions) ([]BatchResult, error) {
	return DefaultEngine().QRCPBatch(ctx, problems, opts)
}

// factorOne factors a single batch problem, converting panics (shape
// validation on a caller-supplied matrix) into per-problem errors so one
// bad input cannot take down the whole batch.
func factorOne(shard *Engine, a *mat.Dense, o *Options, idx int) (f *Factorization, err error) {
	defer func() {
		if r := recover(); r != nil {
			f, err = nil, fmt.Errorf("tsqrcp: batch problem %d: %v", idx, r)
		}
	}()
	return shard.QRCP(a, o)
}
