package core

import (
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/cholcp"
	"repro/internal/lapack"
	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/mat"
)

// Sweeper abstracts the A-side of Ite-CholQR-CP (Algorithm 4): every
// operation that touches the tall m×n working matrix, each of which is
// one full sweep over its rows. The driver (IteCholQRCPSweeps) owns the
// replicated W-side state — the Gram matrix, P-Chol-CP, the triangular
// assembly, the accumulated R and permutation — and calls the sweeper
// for the row-streaming work. Three implementations exist: the in-core
// DenseSweeper over a resident mat.Dense, internal/ooc's file-backed
// sweeper, which replays the identical kernel schedule one panel at a
// time, and dist's sweeper, which wraps a DenseSweeper on the local row
// block and sums every Gram it emits with one Allreduce. Because the
// W-side is shared code and the A-side kernels commit to a fixed
// summation shape (the slot reduction of blas.Gram and the fused pass),
// all of them produce bit-identical R, pivots, and Q on the same input,
// across engine widths.
//
// Every CholQR pass in this package runs on the same seam, through the
// steps chol, cholFinish, fusedChol and reorthogonalize: CholQR,
// CholeskyQR2 (CholQR2, CholQR2InPlace), ShiftedCholQR3, and CQRRPT
// after its preconditioner, all on a DenseSweeper.
//
// Methods return an error instead of panicking because the file-backed
// implementation can fail on I/O; the in-core sweeper never errors.
type Sweeper interface {
	// Gram computes w := AₖᵀAₖ (full symmetric) for the leading
	// k = w.Rows columns Aₖ = A[:, :k]: Algorithm 4 line 3 (k = n) and
	// the Gram of the unpivoted CholQR pass.
	Gram(w *mat.Dense) error
	// FusedPivot applies one pivoting pass: A := (A·P)·R′⁻¹ with
	// w := AₖᵀAₖ of the updated A streamed out of the same row
	// traversal (lines 8–11 fused with the next line 3, or on the last
	// pass with line 17's reorthogonalization Gram). perm is the
	// full-width column permutation, nil for none (the unpivoted CholQR
	// passes); rp the assembled R′; w is k×k and compact, k ≤ n.
	FusedPivot(perm mat.Perm, rp, w *mat.Dense) error
	// Finish applies the reorthogonalization TRSM Aₖ := Aₖ·r⁻¹ on the
	// leading k = r.Rows columns, which turns them into Q. Implementations
	// that do not materialize Q (the out-of-core sweeper without a Q
	// destination) may skip the traversal — R and the pivots are already
	// final. k is 0 when A is zero; then no FusedPivot ran.
	Finish(r *mat.Dense) error
}

// chol factors the Gram w of a CholQR pass in place: w := chol(w), its
// upper triangle, with the lower one zeroed. A Gram that is not positive
// definite is an ErrBreakdown.
func chol(e *parallel.Engine, w *mat.Dense) error {
	if mat.DebugChecks {
		mat.CheckFinite("core", "CholQR Gram matrix", w)
	}
	k := w.Rows
	sc := trace.Region(trace.StageCholCP)
	err := lapack.PotrfUpper(e, w)
	sc.End()
	trace.AddFlops(trace.StageCholCP, int64(k)*int64(k)*int64(k)/3)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBreakdown, err)
	}
	lapack.ZeroLower(w)
	return nil
}

// cholFinish is the tail of a CholQR pass on the Gram w of the leading
// k = w.Rows columns: w := chol(w), then Aₖ := Aₖ·w⁻¹ through sw.Finish.
// The whole of the unpivoted pass is sw.Gram(w) followed by cholFinish.
func cholFinish(e *parallel.Engine, sw Sweeper, w *mat.Dense) error {
	if err := chol(e, w); err != nil {
		return err
	}
	return sw.Finish(w)
}

// fusedChol applies A := A·r⁻¹ to sw's n columns in one fused sweep that
// streams out the Gram of the updated A into the n×n w, then factors it:
// w := chol(w). r and w must not share storage.
func fusedChol(e *parallel.Engine, sw Sweeper, r, w *mat.Dense) error {
	if err := sw.FusedPivot(nil, r, w); err != nil {
		return err
	}
	return chol(e, w)
}

// reorthogonalize is the second half of CholeskyQR2 on sw, after a
// CholQR pass whose factor r is not yet applied to A: the fused sweep
// A := A·r⁻¹ streams out W₂, a CholQR pass on W₂ turns A into Q, and
// acc := R₂·acc folds R₂ into the accumulated R (acc may be r itself).
func reorthogonalize(e *parallel.Engine, sw Sweeper, r, acc *mat.Dense) error {
	w := mat.NewDense(r.Rows, r.Rows)
	if err := fusedChol(e, sw, r, w); err != nil {
		return err
	}
	if err := sw.Finish(w); err != nil {
		return err
	}
	accumulate(w, acc)
	return nil
}

// accumulate folds a pass's triangular factor into the accumulated R:
// acc := r·acc.
func accumulate(r, acc *mat.Dense) {
	sm := trace.Region(trace.StageTrmm)
	blas.TrmmLeftUpperNoTrans(r, acc)
	sm.End()
	trace.AddFlops(trace.StageTrmm, blas.TrmmFlops(acc.Rows, acc.Cols))
}

// IteCholQRCPSweeps runs the Ite-CholQR-CP driver loop over a Sweeper:
// all Gram-matrix-side work (Cholesky on the fixed block, P-Chol-CP,
// triangular accumulation, permutation bookkeeping) happens here on
// n-sized replicated state, while each m-sized row traversal is
// delegated to sw: one Gram, one FusedPivot per iteration, then one
// Finish, so A is read for a Gram Iterations+1 times. The loop stops
// once rankCap ∈ [1, n] pivots are fixed, or earlier when the trailing
// block collapses below the pivot tolerance; either way only the k fixed
// columns are reorthogonalized, on the k×k Gram the last pivoting pass
// emitted, and the result has Rank k, a k×n R and Perm. Every iteration
// fixes at least one pivot, ends the loop, or reorthogonalizes the fixed
// columns when the trailing block collapsed while their Gram was far
// from I — never twice in a row — so there are at most 2·rankCap
// iterations. Returns a CPResult without Q — the sweeper owns the
// working matrix, so the caller attaches (or streams) Q itself.
func IteCholQRCPSweeps(e *parallel.Engine, n int, sw Sweeper, eps float64, rankCap int) (*CPResult, error) {
	if eps < 0 || eps >= 1 {
		panic(fmt.Sprintf("core: IteCholQRCP tolerance %g outside [0,1)", eps))
	}
	if rankCap < 1 || rankCap > n {
		panic(fmt.Sprintf("core: IteCholQRCP rank cap %d outside [1,%d]", rankCap, n))
	}
	rTotal := mat.Identity(n)     // accumulated R
	perm := mat.IdentityPerm(n)   // accumulated P
	fullPerm := make(mat.Perm, n) // full-width permutation scratch for the fused pass
	floor := make([]float64, n)   // P-Chol-CP's noise floor for the trailing block
	// The two n×n workspaces are pooled and go back on every path: the
	// result holds no view of them. w is compact (Stride n), which the
	// k×k views of its leading storage below rely on.
	w := mat.GetWorkspace(n, n, true) // Gram workspace
	defer mat.PutWorkspace(w)
	rp := mat.GetWorkspace(n, n, false) // R′ workspace, zeroed each iteration
	defer mat.PutWorkspace(rp)
	res := &CPResult{PivotIter: make([]int, n)}

	k := 0
	reorth := false // the last pass fixed no pivot, only reorthogonalized
	for iter := 0; k < rankCap; iter++ {
		// Cooperative cancellation: give up between iterations, never
		// inside a kernel.
		if err := e.Err(); err != nil {
			return nil, err
		}
		trace.Inc(trace.CtrIterations)
		// Line 3: W := AᵀA. Every later iteration's W was already streamed
		// out by the previous iteration's fused permute→TRSM→Gram pass.
		if iter == 0 {
			if err := sw.Gram(w); err != nil {
				return nil, err
			}
			// A column holding a NaN or Inf (or overflowing) has a
			// non-finite Gram diagonal. Without this check P-Chol-CP
			// would never pivot it, and the run would end as a collapse.
			for j := range n {
				if d := w.Data[j*w.Stride+j]; math.IsNaN(d) || math.IsInf(d, 0) {
					return nil, fmt.Errorf("%w: column %d of A is not finite", ErrBreakdown, j)
				}
			}
		}

		// Lines 4–7: all the Cholesky work on the Gram matrix — the fixed
		// block factor/eliminate plus P-Chol-CP on the Schur complement.
		sc := trace.Region(trace.StageCholCP)
		rp.Zero()
		var fl []float64 // no floor for the first call: no update has cancelled yet
		if k > 0 {
			// Lines 4–6: factor the fixed block and eliminate coupling.
			r11 := rp.Slice(0, k, 0, k)
			r11.Copy(w.Slice(0, k, 0, k))
			if err := lapack.PotrfUpper(e, r11); err != nil {
				sc.End()
				return nil, fmt.Errorf("%w: fixed block lost definiteness: %v", ErrBreakdown, err)
			}
			lapack.ZeroLower(r11)
			r12 := rp.Slice(0, k, k, n)
			r12.Copy(w.Slice(0, k, k, n))
			blas.TrsmLeftUpperTrans(r11, r12) // R₁₂ := R₁₁⁻ᵀ·W₁₂
			// W̃₂₂ := W₂₂ − R₁₂ᵀ·R₁₂ (Schur complement of the fixed block).
			w22 := w.Slice(k, n, k, n)
			setNoiseFloor(floor, w22)
			fl = floor[:n-k]
			blas.Gemm(e, blas.Trans, blas.NoTrans, -1, r12, r12, 1, w22)
			// Mirror the wrapped kernels' flop attribution at the stage
			// level so the stage and kernel totals of a -trace table reconcile.
			trace.AddFlops(trace.StageCholCP,
				int64(k)*int64(k)*int64(k)/3+ // PotrfUpper
					blas.TrsmLeftFlops(k, n-k)+ // TrsmLeftUpperTrans
					2*int64(n-k)*int64(n-k)*int64(k)) // Gemm
		}

		// Line 7: P-Chol-CP on the trailing Schur complement, capped at
		// the pivots still missing from the rank cap. It factors R₂₂
		// straight into R′'s trailing block, which is line 10's assembly
		// R′ = [R₁₁ R₁₂; 0 R₂₂].
		pres := cholcp.PCholCPMax(e, w.Slice(k, n, k, n), eps, rankCap-k, fl, rp.Slice(k, n, k, n))
		trace.AddFlops(trace.StageCholCP, cholcp.Flops(n-k, pres.NPiv))
		sc.End()
		kNew := pres.NPiv
		if kNew == 0 {
			// The trailing block collapsed: the rank is k. The closing
			// CholQR pass orthogonalizes the fixed columns only if their
			// Gram is near I; ε = 0 can fix pivots that leave them
			// ill-conditioned, and then this iteration's pass, with no new
			// pivot, reorthogonalizes them first.
			if k == 0 || gramNearIdentity(w, k) {
				break
			}
			if reorth {
				return nil, fmt.Errorf("%w: fixed columns stay far from orthonormal", ErrBreakdown)
			}
		}
		reorth = kNew == 0
		// Lines 8–9 (coupling-block half): permute R′'s coupling block by
		// P″ — the column permutation of A itself rides in the sweep.
		ss := trace.Region(trace.StageSwap)
		if k > 0 {
			mat.PermuteColsInPlaceEngine(e, rp.Slice(0, k, k, n), pres.Perm)
		}
		ss.End()
		// Lines 8–11 fused with the next Gram in one traversal: the next
		// iteration's line 3 W := AᵀA, or, once the rank cap is reached,
		// line 17's reorthogonalization Gram of the k+kNew fixed columns,
		// compact in w's leading storage as an Allreduce needs.
		for j := 0; j < k; j++ {
			fullPerm[j] = j
		}
		for j, v := range pres.Perm {
			fullPerm[k+j] = k + v
		}
		next := w
		if kf := k + kNew; kf == rankCap {
			next = mat.NewDenseData(kf, kf, w.Data[:kf*kf])
		}
		if err := sw.FusedPivot(fullPerm, rp, next); err != nil {
			return nil, err
		}

		// Line 12 with the conjugation of Eq. (14): the accumulated R's
		// trailing columns are permuted by P′ (its trailing identity block
		// is invariant), then R := R′·R.
		sm := trace.Region(trace.StageTrmm)
		if k > 0 {
			mat.PermuteColsInPlaceEngine(e, rTotal.Slice(0, k, k, n), pres.Perm)
		}
		blas.TrmmLeftUpperNoTrans(rp, rTotal)
		sm.End()
		trace.AddFlops(trace.StageTrmm, blas.TrmmFlops(n, n))

		// Lines 13–14: accumulate the permutation P := P·P″.
		for j := 0; j < kNew; j++ {
			res.PivotIter[k+j] = iter
		}
		applyTrailingPerm(perm, k, pres.Perm)

		k += kNew
		res.Iterations = iter + 1
		res.PivotCounts = append(res.PivotCounts, kNew)
	}

	// Line 17: reorthogonalization by one plain CholQR pass over the k
	// fixed columns — Cholesky of the Gram the last pivoting pass
	// emitted, and the final TRSM that produces Q (delegated to the
	// sweeper, which may skip it when Q is not materialized) — folded
	// into their k rows of the accumulated R.
	if err := e.Err(); err != nil {
		return nil, err
	}
	if k < rankCap {
		// The trailing block collapsed: the last pass emitted the n×n
		// Gram, whose leading k×k block the Schur update and P-Chol-CP
		// (which write only w[k:, k:]) left intact. Compact it in place.
		for i := 1; i < k; i++ {
			copy(w.Data[i*k:i*k+k], w.Data[i*n:i*n+k])
		}
	}
	wk := mat.NewDenseData(k, k, w.Data[:k*k])
	if err := cholFinish(e, sw, wk); err != nil {
		return nil, err
	}
	rk := rTotal.Slice(0, k, 0, n)
	accumulate(wk, rk) // R := R_reortho·R
	res.R = rk
	res.Perm = perm
	res.Rank = k
	return res, nil
}

// setNoiseFloor sets floor[j] = n·u·w(j,j) for the trailing block w
// before the Schur update, with n the full width: a diagonal that the
// update W₂₂ − R₁₂ᵀR₁₂ or P-Chol-CP's own downdates cancel to that floor
// is rounding noise, its column in the span of the pivoted ones to
// working precision. Left in, the noise could be fixed as a pivot — the
// ε rule skips a call's first pivot and measures the rest against it —
// and the next fixed-block Cholesky would break down on it, or the
// reorthogonalization would lose Q's orthogonality. Once every
// trailing diagonal is at its floor, P-Chol-CP fixes nothing and the
// trailing block has collapsed.
func setNoiseFloor(floor []float64, w *mat.Dense) {
	tol := float64(len(floor)) * mat.Eps
	for j := range w.Rows {
		floor[j] = tol * w.Data[j*w.Stride+j]
	}
}

// gramNearIdentity reports whether the leading k×k block G of w, the
// Gram of the fixed columns, has ‖G − I‖_F ≤ 1/2: then κ₂(G) ≤ 3, and one
// CholQR pass orthogonalizes the columns to roundoff.
func gramNearIdentity(w *mat.Dense, k int) bool {
	s := 0.0
	for i := range k {
		for j, v := range w.Data[i*w.Stride : i*w.Stride+k] {
			if i == j {
				v--
			}
			s += v * v
		}
	}
	return s <= 0.25
}

// DenseSweeper is the in-core Sweeper: every sweep is one kernel call on
// the resident working matrix, which becomes Q.
type DenseSweeper struct {
	e *parallel.Engine
	// a is the working matrix; nil until the first FusedPivot, while the
	// sweeps read src.
	a, src *mat.Dense
}

// NewDenseSweeper returns the in-core sweeper over the working matrix a,
// which it updates in place.
func NewDenseSweeper(e *parallel.Engine, a *mat.Dense) *DenseSweeper {
	return &DenseSweeper{e: e, a: a}
}

// NewDenseSweeperCopy returns the in-core sweeper over a copy of a,
// which it never writes. The sweeps read a until the first FusedPivot,
// which gathers a straight into a fresh working matrix: the copy takes
// no sweep of its own. It serves the runs whose every Finish follows a
// FusedPivot: IteCholQRCPSweeps, where none has run only at rank 0, when
// Finish and Q act on no columns of a, and CholeskyQR2 and
// ShiftedCholQR3.
func NewDenseSweeperCopy(e *parallel.Engine, a *mat.Dense) *DenseSweeper {
	return &DenseSweeper{e: e, src: a}
}

// cur returns the matrix the next sweep reads.
func (s *DenseSweeper) cur() *mat.Dense {
	if s.a == nil {
		return s.src
	}
	return s.a
}

// Q returns the orthonormal factor after a run of rank k: the working
// matrix itself when k spans all its columns, otherwise a compact copy
// of its leading k columns (m×0 when A is zero).
func (s *DenseSweeper) Q(k int) *mat.Dense {
	a := s.cur()
	if k == a.Cols {
		return a
	}
	return a.Slice(0, a.Rows, 0, k).Clone()
}

func (s *DenseSweeper) Gram(w *mat.Dense) error {
	a := s.cur()
	m, k := a.Rows, w.Rows
	sg := trace.Region(trace.StageGram)
	blas.Gram(s.e, w, a.Slice(0, m, 0, k))
	sg.End()
	trace.AddFlops(trace.StageGram, int64(m)*int64(k)*int64(k+1))
	return nil
}

func (s *DenseSweeper) FusedPivot(perm mat.Perm, rp, w *mat.Dense) error {
	src := s.cur()
	m, n := src.Rows, src.Cols
	sf := trace.Region(trace.StageFused)
	if s.a == nil {
		s.a, s.src = mat.NewDense(m, n), nil
	}
	blas.PermTrsmGramFusedInto(s.e, s.a, src, perm, rp, w)
	sf.End()
	k := w.Rows
	trace.AddFlops(trace.StageFused,
		int64(m)*int64(n)*int64(n)+int64(m)*int64(k)*int64(k+1))
	trace.AddBytes(trace.StageFused, 2*8*int64(m)*int64(n))
	return nil
}

func (s *DenseSweeper) Finish(r *mat.Dense) error {
	a := s.cur()
	m, k := a.Rows, r.Rows
	st := trace.Region(trace.StageTrsm)
	blas.TrsmRightUpperNoTrans(s.e, a.Slice(0, m, 0, k), r)
	st.End()
	trace.AddFlops(trace.StageTrsm, int64(m)*int64(k)*int64(k))
	return nil
}
