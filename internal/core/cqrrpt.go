package core

import (
	"errors"
	"fmt"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/parallel"
	"repro/internal/sketch"
	"repro/internal/trace"
	"repro/mat"
)

// SketchKind selects the randomized embedding of the CQRRPT path.
type SketchKind int

const (
	// SketchSparse is the sparse-sign (CountSketch-style) embedding — the
	// default: one streaming read of A at 2·m·n·nnz flops.
	SketchSparse SketchKind = iota
	// SketchGaussian is the dense Gaussian embedding — the statistically
	// safest fallback, at 2·d·m·n flops.
	SketchGaussian
)

const (
	// CQRRPTSketchFactor is the embedding-dimension multiplier: the sketch
	// has d = min(m, CQRRPTSketchFactor·n) rows. d = 2n gives a subspace
	// embedding with distortion ≈ 1/√2 at negligible cost next to the
	// m-sized passes, which keeps κ₂ of the preconditioned matrix O(1).
	CQRRPTSketchFactor = 2

	// CQRRPTCondGuard is the rejection threshold on the 1-norm condition
	// estimate of the sketch triangular factor R_sk. The preconditioner
	// tolerates κ₂(A) up to ≈ u⁻¹ (the sketch shares A's spectrum up to
	// the embedding distortion, and the reorthogonalization backstop
	// absorbs a marginal preconditioned system), and κ̂₁ overestimates κ₂
	// by up to the column count, so the threshold sits a factor ~32 above
	// u⁻¹: the σ-tail rank-revealing matrices of the evaluation
	// (κ̂₁ ≈ 10¹⁶) pass, while exactly singular or overflow-bound sketches
	// (κ̂ = +Inf or ≫ u⁻¹, where the solve would produce garbage that
	// Cholesky cannot be relied on to detect) are rejected.
	CQRRPTCondGuard = 32 / unitRoundoff

	// CQRRPTReorthCond triggers the optional second CholQR pass: one pass
	// on the preconditioned matrix loses orthogonality like u·κ₂(A_p)², so
	// when the condition estimate of its Cholesky factor exceeds this
	// bound the result is reorthogonalized once (CholeskyQR2 style), which
	// restores u-level orthogonality for any κ₂(A_p) ≲ u^(−1/2). The
	// threshold is calibrated from measurement, not the worst-case κ²
	// bound: κ̂₁(R_e) overestimates κ₂(A_p) by roughly an order of
	// magnitude here (σ-tail matrices at m = 10⁶, n = 64 measure
	// κ̂₁ ≈ 160 with single-pass orthogonality 1.5·10⁻¹⁴, growing like √m
	// from ≈ 80 at m = 2·10⁴), so below 500 one pass stays comfortably
	// inside the 10⁻¹³ parity gate and the m-sized reorthogonalization
	// sweep would buy nothing. A healthy d = 2n sketch keeps κ̂₁(R_e) well
	// under this, so the steady state is single-pass.
	CQRRPTReorthCond = 500.0
)

// errSketchRejected reports that a CQRRPT attempt rejected its sketch
// preconditioner (condition-estimate guard or Cholesky breakdown). The
// driver reacts by escalating: sparse → Gaussian → iterated path.
var errSketchRejected = errors.New("core: CQRRPT sketch preconditioner rejected")

// CQRRPT computes the QR factorization with column pivoting by randomized
// preconditioning (the CQRRPT scheme of Melnichenko et al.): sketch A down
// to d = min(m, 2n) rows with a sparse-sign embedding, take the pivots and
// the triangular factor R_sk from a Householder QRCP of the small sketch,
// apply the preconditioner in one fused permute→TRSM→Gram pass
// A_p := (A·P)·R_sk⁻¹ (which streams out W = A_pᵀA_p for free), and finish
// with a single CholQR on the preconditioned matrix: R = R_e·R_sk.
//
// Compared with Ite-CholQR-CP's k pivoting sweeps over A, the pivot
// decision costs one read of A (the sketch) plus an O(n³)-sized QRCP, so
// the m-sized work drops to one fused pass and one TRSM — about 3mn²
// flops and five DRAM traversals against the iterated path's ~8mn².
//
// Robustness is layered: a condition-estimate guard on R_sk rejects
// numerically singular sketches (retrying with a Gaussian embedding
// before falling back to IteCholQRCP, counted by CtrSketchFallbacks), a
// Cholesky breakdown of the preconditioned Gram likewise rejects, and a
// marginal preconditioner (κ₁(R_e) > CQRRPTReorthCond) gets one extra
// CholQR pass instead of a full fallback.
//
// The result is a deterministic function of (a, eps, seed) — bit-identical
// across engine widths — because the sketch kernels, the fused pass, and
// every factorization step use width-invariant reductions. Iterations
// reports the number of CholQR passes on the preconditioned matrix (1, or
// 2 after reorthogonalization); on fallback the fields are those of the
// iterated path. eps is the pivot tolerance of that fallback path only.
func CQRRPT(e *parallel.Engine, a *mat.Dense, eps float64, seed uint64) (*CPResult, error) {
	if a.Rows < a.Cols {
		panic(fmt.Sprintf("core: CQRRPT needs a tall matrix, got %d×%d", a.Rows, a.Cols))
	}
	res, err := cqrrptAttempt(e, a, SketchSparse, seed, CQRRPTReorthCond)
	if err == nil || !errors.Is(err, errSketchRejected) {
		return res, err
	}
	trace.Inc(trace.CtrSketchFallbacks)
	res, err = cqrrptAttempt(e, a, SketchGaussian, seed, CQRRPTReorthCond)
	if err == nil || !errors.Is(err, errSketchRejected) {
		return res, err
	}
	trace.Inc(trace.CtrSketchFallbacks)
	return FullRank(iteCholQRCP(e, a, eps, a.Cols, nil))
}

// cqrrptGaussianDomain separates the Gaussian retry's random stream from
// the sparse attempt's, so the retry is not correlated with the sketch
// that was just rejected.
const cqrrptGaussianDomain = 0x9e3779b97f4a7c15

// cqrrptAttempt runs one sketch→QRCP→precondition→CholQR pipeline with
// the given embedding. It returns errSketchRejected (wrapped with the
// cause) when the guards decide the preconditioner cannot be trusted.
// reorthCond is the κ̂₁(R_e) bound above which the result gets a second
// CholQR pass (CQRRPTReorthCond in production; tests lower it to force
// the reorthogonalization path).
func cqrrptAttempt(e *parallel.Engine, a *mat.Dense, kind SketchKind, seed uint64, reorthCond float64) (*CPResult, error) {
	m, n := a.Rows, a.Cols
	if err := e.Err(); err != nil {
		return nil, err
	}
	d := CQRRPTSketchFactor * n
	if d > m {
		d = m
	}

	// Sketch stage: SA := S·A, the Householder QRCP of the d×n sketch and
	// the condition estimate of its R.
	// Stage flop/byte attribution mirrors the wrapped kernels (sketch,
	// geqp3) so stage and kernel totals reconcile in cmd/trace-report.
	sa := mat.NewDense(d, n)
	ss := trace.Region(trace.StageSketch)
	switch kind {
	case SketchGaussian:
		sketch.ApplyGaussian(e, sa, a, seed^cqrrptGaussianDomain)
		trace.AddFlops(trace.StageSketch, 2*int64(d)*int64(m)*int64(n))
	default:
		nnz := min(sketch.DefaultNNZ, d)
		sketch.ApplySparse(e, sa, a, nnz, seed)
		trace.AddFlops(trace.StageSketch, 2*int64(m)*int64(n)*int64(nnz))
	}
	trace.AddBytes(trace.StageSketch, 8*int64(m)*int64(n))
	tau := make([]float64, n)
	jpvt := make(mat.Perm, n)
	lapack.Geqp3(e, sa, tau, jpvt)
	trace.AddFlops(trace.StageSketch,
		4*int64(d)*int64(n)*int64(n)-2*int64(d+n)*int64(n)*int64(n)+4*int64(n)*int64(n)*int64(n)/3)
	rsk := lapack.ExtractR(sa)
	// Guard: R_sk is about to be inverted against every row of A; reject
	// the sketch if it is numerically (or exactly — κ̂ = +Inf) singular.
	cond := lapack.TrconUpper1(rsk)
	ss.End()
	if cond > CQRRPTCondGuard {
		return nil, fmt.Errorf("%w: sketch R condition estimate %.3g exceeds %.3g",
			errSketchRejected, cond, CQRRPTCondGuard)
	}
	if err := e.Err(); err != nil {
		return nil, err
	}

	// Preconditioner application as one streaming pass over A:
	// A_p := (A·P)·R_sk⁻¹ with W = A_pᵀA_p emitted in the same traversal,
	// written to a fresh matrix so A is read, never modified. Flops and
	// bytes mirror the fused kernel.
	sp := trace.Region(trace.StagePrecond)
	aw := mat.NewDense(m, n)
	w := mat.NewDense(n, n)
	blas.PermTrsmGramFusedInto(e, aw, a, jpvt, rsk, w)
	sp.End()
	trace.AddFlops(trace.StagePrecond,
		int64(m)*int64(n)*int64(n)+int64(m)*int64(n)*int64(n+1))
	trace.AddBytes(trace.StagePrecond, 2*8*int64(m)*int64(n))
	if debugChecksEnabled {
		debugCheckFinite("CQRRPT preconditioned matrix", aw)
		debugCheckFinite("CQRRPT preconditioned Gram matrix", w)
	}

	// One CholQR on the preconditioned matrix: R_e = chol(W), Q = A_p·R_e⁻¹.
	// The stage also times the condition estimate of R_e.
	sc := trace.Region(trace.StageCholCP)
	err := lapack.PotrfUpper(e, w)
	var condRe float64
	if err == nil {
		lapack.ZeroLower(w)
		condRe = lapack.TrconUpper1(w)
	}
	sc.End()
	trace.AddFlops(trace.StageCholCP, int64(n)*int64(n)*int64(n)/3)
	if err != nil {
		return nil, fmt.Errorf("%w: preconditioned Gram lost definiteness: %v",
			errSketchRejected, err)
	}

	passes := 1
	if condRe <= reorthCond {
		// Healthy preconditioner: finish with the solve. Q = A_p·R_e⁻¹.
		st := trace.Region(trace.StageTrsm)
		blas.TrsmRightUpperNoTrans(e, aw, w)
		st.End()
		trace.AddFlops(trace.StageTrsm, int64(m)*int64(n)*int64(n))
	} else {
		// Marginal preconditioner: one CholeskyQR2-style pass restores
		// u-level orthogonality, far cheaper than abandoning the pivots
		// for the iterated path. The first solve fuses with the second
		// Gram in one width-invariant streaming pass (a plain Gram sweep
		// would break the bit-identical-across-widths contract).
		if err := e.Err(); err != nil {
			return nil, err
		}
		w2 := mat.NewDense(n, n)
		sf := trace.Region(trace.StageFused)
		blas.PermTrsmGramFused(e, aw, nil, w, w2)
		sf.End()
		trace.AddFlops(trace.StageFused,
			int64(m)*int64(n)*int64(n)+int64(m)*int64(n)*int64(n+1))
		trace.AddBytes(trace.StageFused, 2*8*int64(m)*int64(n))
		sc2 := trace.Region(trace.StageCholCP)
		err := lapack.PotrfUpper(e, w2)
		sc2.End()
		trace.AddFlops(trace.StageCholCP, int64(n)*int64(n)*int64(n)/3)
		if err != nil {
			return nil, fmt.Errorf("%w: reorthogonalization pass: %v", errSketchRejected, err)
		}
		lapack.ZeroLower(w2)
		st := trace.Region(trace.StageTrsm)
		blas.TrsmRightUpperNoTrans(e, aw, w2)
		st.End()
		trace.AddFlops(trace.StageTrsm, int64(m)*int64(n)*int64(n))
		// Fold the second pass into R_e: R_e := R_e2·R_e.
		sm2 := trace.Region(trace.StageTrmm)
		blas.TrmmLeftUpperNoTrans(w2, w)
		sm2.End()
		trace.AddFlops(trace.StageTrmm, blas.TrmmFlops(n, n))
		passes = 2
	}

	// R := R_e·R_sk.
	sm := trace.Region(trace.StageTrmm)
	blas.TrmmLeftUpperNoTrans(w, rsk)
	sm.End()
	trace.AddFlops(trace.StageTrmm, blas.TrmmFlops(n, n))
	if debugChecksEnabled {
		debugCheckFinite("CQRRPT orthonormal factor", aw)
		debugCheckFinite("CQRRPT triangular factor", rsk)
	}
	return &CPResult{Q: aw, R: rsk, Perm: jpvt, Iterations: passes}, nil
}
