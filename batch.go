package tsqrcp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/mat"
)

// BatchResult is the outcome of one problem in a QRCPBatch call.
type BatchResult struct {
	// F is the factorization, nil if the problem failed or was skipped.
	F *Factorization
	// Err is the per-problem error: ErrBreakdown for a numerical
	// failure, ctx.Err() for problems not finished before cancellation,
	// or a wrapped panic message for invalid inputs (e.g. a wide matrix).
	// A rank-deficient problem is not an error: F.Rank says how many
	// columns were factored.
	Err error
}

// QRCPBatch factors a slice of independent tall-skinny problems — the
// many-small-matrices serving workload — by sharding them across the
// persistent worker pool. opts apply to every problem. min(len(problems),
// engine width) shards — one per problem in a small batch, one per core
// in a large one — claim problems dynamically (an atomic cursor, so a
// slow problem never blocks the rest of the batch), and each
// factorization runs with an even share of the engine's width.
//
// Errors are per-problem: one singular or invalid matrix does not abort
// its neighbors, it just sets results[i].Err. Cancellation is
// cooperative and checked at the stage boundaries of the Ite-CholQR-CP
// loop: once ctx is done, running factorizations return early, unclaimed
// problems are skipped with results[i].Err = ctx.Err(), and QRCPBatch
// itself returns ctx.Err() alongside the partial results. A nil ctx is
// treated as context.Background().
func (e *Engine) QRCPBatch(ctx context.Context, problems []*mat.Dense, opts *Options) ([]BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]BatchResult, len(problems))
	if len(problems) == 0 {
		return results, ctx.Err()
	}

	width := e.Workers()
	conc := min(len(problems), width)
	perProblem := max(1, width/conc)
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
				results[i].F, results[i].Err = factorOne(shard, problems[i], opts, i)
			}
		}()
	}
	wg.Wait()
	return results, ctx.Err()
}

// QRCPBatch runs the batch on the default engine; see Engine.QRCPBatch.
func QRCPBatch(ctx context.Context, problems []*mat.Dense, opts *Options) ([]BatchResult, error) {
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
