package core

import (
	"fmt"

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
// Methods return an error instead of panicking because the file-backed
// implementation can fail on I/O; the in-core sweeper never errors.
type Sweeper interface {
	// Gram computes w := AₖᵀAₖ (full symmetric) for the leading
	// k = w.Rows columns Aₖ = A[:, :k] — Algorithm 4 line 3 (k = n) and
	// the reorthogonalization pass's Gram (k = the rank reached).
	Gram(w *mat.Dense) error
	// FusedPivot applies the steady-state fused pass: A := (A·P)·R′⁻¹
	// with the next iteration's w := AᵀA streamed out of the same row
	// traversal (lines 8–11 fused with the next line 3). perm is the
	// full-width column permutation; rp the assembled R′.
	FusedPivot(perm mat.Perm, rp, w *mat.Dense) error
	// Pivot is the unfused form of lines 8–11 used on the final pivoting
	// iteration, which has no next Gram to fuse with: permute the
	// trailing columns [k, n) of A by tp, then solve A := A·R′⁻¹.
	Pivot(k int, tp mat.Perm, rp *mat.Dense) error
	// Finish applies the reorthogonalization TRSM Aₖ := Aₖ·r⁻¹ on the
	// leading k = r.Rows columns, which turns them into Q. Implementations
	// that do not materialize Q (the out-of-core sweeper without a Q
	// destination) may skip the traversal — R and the pivots are already
	// final.
	Finish(r *mat.Dense) error
}

// CholQRSweep runs one plain CholQR pass (Algorithm 2) over the leading
// k = w.Rows columns of the sweeper's matrix: w := AₖᵀAₖ, w := chol(w)
// (upper triangle, lower zeroed), Aₖ := Aₖ·w⁻¹. It is the
// reorthogonalization tail of IteCholQRCPSweeps and the whole of every
// unpivoted CholQR pass, in-core and distributed.
func CholQRSweep(e *parallel.Engine, sw Sweeper, w *mat.Dense) error {
	if err := sw.Gram(w); err != nil {
		return err
	}
	if debugChecksEnabled {
		debugCheckFinite("CholQR Gram matrix", w)
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
	return sw.Finish(w)
}

// IteCholQRCPSweeps runs the Ite-CholQR-CP driver loop over a Sweeper:
// all Gram-matrix-side work (Cholesky on the fixed block, P-Chol-CP,
// triangular accumulation, permutation bookkeeping) happens here on
// n-sized replicated state, while each m-sized row traversal is
// delegated to sw. The loop stops once rankCap ∈ [1, n] pivots are
// fixed, or earlier when the trailing block collapses below the pivot
// tolerance; either way only the k fixed columns are reorthogonalized,
// and the result has Rank k, a k×n R and Perm. Full-rank callers pass
// rankCap = n and treat Rank < n as ErrStall. Returns a CPResult without
// Q — the sweeper owns the working matrix, so the caller attaches (or
// streams) Q itself.
func IteCholQRCPSweeps(e *parallel.Engine, n int, sw Sweeper, eps float64, rankCap int, iterCB IterTrace) (*CPResult, error) {
	if eps < 0 || eps >= 1 {
		panic(fmt.Sprintf("core: IteCholQRCP tolerance %g outside [0,1)", eps))
	}
	if rankCap < 1 || rankCap > n {
		panic(fmt.Sprintf("core: IteCholQRCP rank cap %d outside [1,%d]", rankCap, n))
	}
	rTotal := mat.Identity(n)     // accumulated R
	perm := mat.IdentityPerm(n)   // accumulated P
	w := mat.NewDense(n, n)       // Gram workspace
	rp := mat.NewDense(n, n)      // R′ workspace, reused across iterations
	fullPerm := make(mat.Perm, n) // full-width permutation scratch for the fused pass
	res := &CPResult{PivotIter: make([]int, n)}

	k := 0
	for iter := 0; k < rankCap; iter++ {
		if iter >= DefaultMaxIterations {
			return nil, ErrStall
		}
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
		}

		// Lines 4–7: all the Cholesky work on the Gram matrix — the fixed
		// block factor/eliminate plus P-Chol-CP on the Schur complement.
		sc := trace.Region(trace.StageCholCP)
		rp.Zero()
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
			blas.Gemm(e, blas.Trans, blas.NoTrans, -1, r12, r12, 1, w22)
			// Mirror the wrapped kernels' flop attribution at the stage
			// level so cmd/trace-report stage and kernel totals reconcile.
			trace.AddFlops(trace.StageCholCP,
				int64(k)*int64(k)*int64(k)/3+ // PotrfUpper
					blas.TrsmLeftFlops(k, n-k)+ // TrsmLeftUpperTrans
					2*int64(n-k)*int64(n-k)*int64(k)) // Gemm
		}

		// Line 7: P-Chol-CP on the trailing Schur complement, capped at
		// the pivots still missing from the rank cap.
		pres := cholcp.PCholCPMax(e, w.Slice(k, n, k, n), eps, rankCap-k)
		trace.AddFlops(trace.StageCholCP, cholcp.Flops(n-k, pres.NPiv))
		sc.End()
		kNew := pres.NPiv
		if kNew == 0 {
			if k == 0 {
				return nil, ErrStall
			}
			break // the trailing block collapsed: the rank is k
		}
		// Lines 8–9 (coupling-block half): permute R′'s coupling block by
		// P″ — the column permutation of A itself rides in the sweep.
		ss := trace.Region(trace.StageSwap)
		if k > 0 {
			mat.PermuteColsInPlaceEngine(e, rp.Slice(0, k, k, n), pres.Perm)
		}
		ss.End()
		// Line 10: assemble R′ = [R₁₁ R₁₂; 0 R₂₂].
		rp.Slice(k, n, k, n).Copy(pres.R)
		if k+kNew < rankCap {
			// Steady state: another pivoting iteration follows, so lines
			// 8–11 fuse with the next iteration's line 3 in one traversal.
			for j := 0; j < k; j++ {
				fullPerm[j] = j
			}
			for j, v := range pres.Perm {
				fullPerm[k+j] = k + v
			}
			if err := sw.FusedPivot(fullPerm, rp, w); err != nil {
				return nil, err
			}
		} else {
			// Last pivoting pass, no next Gram to fuse with: permute the
			// trailing columns of A, then A := A·R′⁻¹.
			if err := sw.Pivot(k, pres.Perm, rp); err != nil {
				return nil, err
			}
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
		if iterCB != nil {
			iterCB(iter, kNew, perm.Clone())
		}
	}

	// Line 17: reorthogonalization by one plain CholQR pass over the k
	// fixed columns — Gram, Cholesky, and the final TRSM that produces Q
	// (delegated to the sweeper, which may skip it when Q is not
	// materialized) — folded into their k rows of the accumulated R.
	if err := e.Err(); err != nil {
		return nil, err
	}
	wk := mat.NewDenseData(k, k, w.Data[:k*k]) // contiguous k×k, as an Allreduce needs
	if err := CholQRSweep(e, sw, wk); err != nil {
		return nil, err
	}
	rk := rTotal.Slice(0, k, 0, n)
	sm := trace.Region(trace.StageTrmm)
	blas.TrmmLeftUpperNoTrans(wk, rk) // R := R_reortho·R
	sm.End()
	trace.AddFlops(trace.StageTrmm, blas.TrmmFlops(k, n))
	res.R = rk
	res.Perm = perm
	res.Rank = k
	return res, nil
}

// DenseSweeper is the in-core Sweeper: every sweep is one kernel call on
// the resident working matrix, which becomes Q.
type DenseSweeper struct {
	e *parallel.Engine
	// a is the working matrix; nil until the first sweep that writes,
	// while the sweeps read src.
	a, src *mat.Dense
}

// NewDenseSweeper returns the in-core sweeper over the working matrix a,
// which it updates in place.
func NewDenseSweeper(e *parallel.Engine, a *mat.Dense) *DenseSweeper {
	return &DenseSweeper{e: e, a: a}
}

// NewDenseSweeperCopy returns the in-core sweeper over a copy of a,
// which it never writes. The sweeps read a until the first one that
// writes, which gathers a straight into a fresh working matrix: the
// copy takes no sweep of its own.
func NewDenseSweeperCopy(e *parallel.Engine, a *mat.Dense) *DenseSweeper {
	return &DenseSweeper{e: e, src: a}
}

// work returns the working matrix, copying the source on a first write
// that gathers nothing.
func (s *DenseSweeper) work() *mat.Dense {
	if s.a == nil {
		s.a, s.src = s.src.Clone(), nil
	}
	return s.a
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
// of its leading k columns.
func (s *DenseSweeper) Q(k int) *mat.Dense {
	a := s.work()
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
	trace.AddFlops(trace.StageFused,
		int64(m)*int64(n)*int64(n)+int64(m)*int64(n)*int64(n+1))
	trace.AddBytes(trace.StageFused, 2*8*int64(m)*int64(n))
	return nil
}

func (s *DenseSweeper) Pivot(k int, tp mat.Perm, rp *mat.Dense) error {
	src := s.cur()
	m, n := src.Rows, src.Cols
	ss := trace.Region(trace.StageSwap)
	if s.a == nil {
		s.a, s.src = mat.NewDense(m, n), nil
		s.a.Slice(0, m, 0, k).Copy(src.Slice(0, m, 0, k))
		mat.PermuteCols(s.a.Slice(0, m, k, n), src.Slice(0, m, k, n), tp)
	} else {
		mat.PermuteColsInPlaceEngine(s.e, s.a.Slice(0, m, k, n), tp)
	}
	ss.End()
	st := trace.Region(trace.StageTrsm)
	blas.TrsmRightUpperNoTrans(s.e, s.a, rp)
	st.End()
	trace.AddFlops(trace.StageTrsm, int64(m)*int64(n)*int64(n))
	return nil
}

func (s *DenseSweeper) Finish(r *mat.Dense) error {
	a := s.work()
	m, k := a.Rows, r.Rows
	st := trace.Region(trace.StageTrsm)
	blas.TrsmRightUpperNoTrans(s.e, a.Slice(0, m, 0, k), r)
	st.End()
	trace.AddFlops(trace.StageTrsm, int64(m)*int64(k)*int64(k))
	return nil
}
