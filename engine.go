package tsqrcp

import (
	"context"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/mat"
)

// Engine is an explicit execution context for the factorizations: a
// parallel width budget plus an optional context.Context for cooperative
// cancellation. The width travels with every kernel call instead of
// living in process-global state, so two goroutines can run QRCP on
// engines with different worker bounds simultaneously and race-free —
// the embedding contract a server needs.
//
// All engines share the process-wide persistent worker pool and pooled
// workspaces; an engine only bounds how many ways each region of its own
// calls fans out. Engines are two words, immutable after construction,
// and safe for concurrent use by any number of goroutines.
//
// The zero value and the nil pointer are both valid and behave like
// DefaultEngine(): full width, no cancellation.
type Engine struct {
	pe *parallel.Engine
}

// NewEngine returns an engine whose calls use at most workers-way
// parallelism. workers < 1 selects all available cores.
func NewEngine(workers int) *Engine {
	return &Engine{pe: parallel.NewEngine(workers)}
}

// DefaultEngine returns the engine the package-level functions run on:
// full parallel width (tracking GOMAXPROCS), no cancellation.
func DefaultEngine() *Engine { return nil }

// WithContext returns a derived engine with the same width whose
// factorizations stop cooperatively once ctx is cancelled or past its
// deadline: in-flight kernels finish, the next stage of the
// Ite-CholQR-CP loop does not start, and the call returns ctx.Err().
func (e *Engine) WithContext(ctx context.Context) *Engine {
	return &Engine{pe: e.eng().WithContext(ctx)}
}

// WithWorkers returns a derived engine with the same context and a new
// width bound. n < 1 selects all available cores.
func (e *Engine) WithWorkers(n int) *Engine {
	return &Engine{pe: e.eng().WithWorkers(n)}
}

// Workers reports the engine's parallel width bound.
func (e *Engine) Workers() int { return e.eng().Workers() }

// eng unwraps the internal engine; nil public engines map to the nil
// (default) internal engine.
func (e *Engine) eng() *parallel.Engine {
	if e == nil {
		return nil
	}
	return e.pe
}

// callEngine derives the internal engine for one call: the engine's own
// width and context, narrowed to opts.Workers when set.
func (e *Engine) callEngine(opts *Options) *parallel.Engine {
	pe := e.eng()
	if opts != nil && opts.Workers > 0 {
		pe = pe.WithWorkers(opts.Workers)
	}
	return pe
}

// QRCP computes the QR factorization with column pivoting of a tall-skinny
// matrix on this engine; see the package-level QRCP for the algorithm and
// Options.Strategy for the randomized CQRRPT alternative.
// Returns the engine's context error if cancelled mid-factorization.
func (e *Engine) QRCP(a *mat.Dense, opts *Options) (*Factorization, error) {
	pe := e.callEngine(opts)
	sp := trace.Region(trace.StageTotal)
	defer sp.End()
	var res *core.CPResult
	var err error
	if opts.strategy() == StrategyCQRRPT {
		res, err = core.CQRRPT(pe, a, opts.tol(), opts.seed())
	} else {
		res, err = core.IteCholQRCP(pe, a, opts.tol())
	}
	if err != nil {
		return nil, err
	}
	return &Factorization{Q: res.Q, R: res.R, Perm: res.Perm,
		Rank: a.Cols, Iterations: res.Iterations}, nil
}

// HouseholderQRCP computes the pivoted factorization with the blocked
// Householder baseline on this engine; see the package-level function.
func (e *Engine) HouseholderQRCP(a *mat.Dense, opts *Options) *Factorization {
	pe := e.callEngine(opts)
	sp := trace.Region(trace.StageTotal)
	defer sp.End()
	res := core.HQRCP(pe, a)
	return &Factorization{Q: res.Q, R: res.R, Perm: res.Perm, Rank: a.Cols}
}

// QRCPTruncated computes a rank-k truncated pivoted QR factorization on
// this engine; see the package-level function.
func (e *Engine) QRCPTruncated(a *mat.Dense, k int, opts *Options) (*Factorization, error) {
	pe := e.callEngine(opts)
	sp := trace.Region(trace.StageTotal)
	defer sp.End()
	res, err := core.IteCholQRCPPartial(pe, a, opts.tol(), k)
	if err != nil {
		return nil, err
	}
	return &Factorization{Q: res.Q, R: res.R, Perm: res.Perm,
		Rank: res.Rank, Iterations: res.Iterations}, nil
}

// qrCall is the single entry point every unpivoted one-shot helper and
// Engine method funnels through: it derives the engine's internal handle
// and adapts the core result to the public QR shape, so engine scoping
// (width, context) is applied in exactly one place.
func (e *Engine) qrCall(algo func(*parallel.Engine, *mat.Dense) (*core.QR, error), a *mat.Dense) (*QR, error) {
	qr, err := algo(e.eng(), a)
	if err != nil {
		return nil, err
	}
	return &QR{Q: qr.Q, R: qr.R}, nil
}

// CholeskyQR computes the thin QR factorization by a single Cholesky
// pass on this engine; see the package-level CholeskyQR.
func (e *Engine) CholeskyQR(a *mat.Dense) (*QR, error) { return e.qrCall(core.CholQR, a) }

// CholeskyQR2 computes the thin QR factorization with one
// reorthogonalization pass on this engine; see the package-level
// CholeskyQR2.
func (e *Engine) CholeskyQR2(a *mat.Dense) (*QR, error) { return e.qrCall(core.CholQR2, a) }

// ShiftedCholeskyQR3 computes the thin QR factorization of arbitrarily
// ill-conditioned matrices on this engine; see the package-level
// ShiftedCholeskyQR3.
func (e *Engine) ShiftedCholeskyQR3(a *mat.Dense) (*QR, error) {
	return e.qrCall(core.ShiftedCholQR3, a)
}

// LUCholeskyQR2 computes the thin QR factorization by LU-Cholesky QR on
// this engine; see the package-level LUCholeskyQR2.
func (e *Engine) LUCholeskyQR2(a *mat.Dense) (*QR, error) { return e.qrCall(core.LUCholQR2, a) }

// HouseholderQR computes the thin QR factorization by blocked
// Householder reflections on this engine; see the package-level
// HouseholderQR.
func (e *Engine) HouseholderQR(a *mat.Dense) *QR {
	qr, _ := e.qrCall(infallible(core.HouseholderQR), a)
	return qr
}

// TSQR computes the thin QR factorization by the communication-avoiding
// reduction tree on this engine; see the package-level TSQR.
func (e *Engine) TSQR(a *mat.Dense) *QR {
	qr, _ := e.qrCall(infallible(core.TSQR), a)
	return qr
}

// infallible adapts an error-free core algorithm to qrCall's signature.
func infallible(algo func(*parallel.Engine, *mat.Dense) *core.QR) func(*parallel.Engine, *mat.Dense) (*core.QR, error) {
	return func(pe *parallel.Engine, a *mat.Dense) (*core.QR, error) {
		return algo(pe, a), nil
	}
}
