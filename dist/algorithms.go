package dist

import (
	"math"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/mat"
)

// QRCPResult is the per-rank output of a distributed pivoted QR
// factorization: the local row block of Q plus the replicated R and P.
// A factorization of rank k has an m_loc×k QLocal and a k×n R.
type QRCPResult struct {
	QLocal     *mat.Dense
	R          *mat.Dense
	Perm       mat.Perm
	Rank       int // the number of columns factored: n unless the trailing block collapsed
	Iterations int
}

// sweeper runs Ite-CholQR-CP's row sweeps on this rank's block: the
// in-core sweeper does the local work, and every Gram it emits — plain
// or out of the fused pass — is summed over the ranks with the single
// Allreduce per sweep that makes Ite-CholQR-CP communication-avoiding
// (§III-D2). The replicated steps of the driver loop are deterministic,
// so all ranks stay in lockstep on the identical reduced bits.
type sweeper struct {
	*core.DenseSweeper
	comm Comm
}

func (s sweeper) Gram(w *mat.Dense) error {
	if err := s.DenseSweeper.Gram(w); err != nil {
		return err
	}
	s.allreduce(w)
	return nil
}

func (s sweeper) FusedPivot(perm mat.Perm, rp, w *mat.Dense) error {
	if err := s.DenseSweeper.FusedPivot(perm, rp, w); err != nil {
		return err
	}
	s.allreduce(w)
	return nil
}

// allreduce sums the Gram matrix w over the ranks under the
// StageAllreduce span, attributing the collective's wall time (including
// wait) and payload to the breakdown. w is contiguous: the driver loop
// hands every Gram a compact buffer. Per-rank timelines stay on
// InstrumentedComm; this is the process-global view the trace reports
// aggregate.
func (s sweeper) allreduce(w *mat.Dense) {
	buf := w.Data[:w.Rows*w.Cols]
	sp := trace.Region(trace.StageAllreduce)
	s.comm.AllreduceSum(buf)
	sp.End()
	trace.AddBytes(trace.StageAllreduce, int64(8*len(buf)))
}

// IteCholQRCP computes the distributed QR factorization with column
// pivoting by Algorithm 4 on the 1-D block-row layout. Every rank calls
// it with its local block; the pivoting decisions are made redundantly on
// replicated Gram matrices, so the only communication is one Allreduce of
// the n×n Gram matrix per Gram: the first, then one per iteration out of
// the fused pass, the last of which is the reorthogonalization Gram —
// Iterations+1 collectives, O(1) independent of n. When the trailing
// block collapses, the reorthogonalization reuses the leading block of
// the last n×n Gram: no extra collective. The row sweeps are the in-core
// ones, fused permute→TRSM→Gram pass included, run on comm.Engine() over
// a copy of this rank's block (see core.NewDenseSweeperCopy), so with one
// rank the result is bit-identical to core.IteCholQRCP.
//
// aLocal is not modified. The result's QLocal is this rank's block of Q,
// with Rank columns; R (Rank×n), Perm and Rank are replicated and
// identical on all ranks.
func IteCholQRCP(comm Comm, aLocal *mat.Dense, eps float64) (*QRCPResult, error) {
	sw := sweeper{DenseSweeper: core.NewDenseSweeperCopy(comm.Engine(), aLocal), comm: comm}
	res, err := core.IteCholQRCPSweeps(comm.Engine(), aLocal.Cols, sw, eps, aLocal.Cols)
	if err != nil {
		return nil, err
	}
	return &QRCPResult{QLocal: sw.Q(res.Rank), R: res.R, Perm: res.Perm,
		Rank: res.Rank, Iterations: res.Iterations}, nil
}

// HQRCP computes the distributed QR factorization with column pivoting by
// the conventional Householder algorithm (the paper's Algorithm 1) on the
// 1-D block-row layout — the paper's distributed baseline (§IV-A1,
// "naive HQR-CP implementation"). Each elimination step needs three
// Allreduces (pivot-column norm, w = Aᵀv, and the broadcast of the pivot
// row for R assembly and norm downdating), so the collective count grows
// like O(n) — this is exactly the communication behaviour Table III
// contrasts against Ite-CholQR-CP.
//
// layout describes the global row distribution; aLocal (this rank's block,
// layout.RowRange(comm.Rank()) rows) is not modified. When formQ is true,
// Q is accumulated explicitly with the blocked compact-WY scheme the paper
// describes (one VᵀV and one VᵀQ Allreduce per panel).
func HQRCP(comm Comm, aLocal *mat.Dense, layout Layout, formQ bool) *QRCPResult {
	n := aLocal.Cols
	rank := comm.Rank()
	rowLo, rowHi := layout.RowRange(rank)
	mLoc := rowHi - rowLo
	if mLoc != aLocal.Rows {
		panic("dist: HQRCP local block does not match layout")
	}
	a := aLocal.Clone()
	perm := mat.IdentityPerm(n)
	r := mat.NewDense(n, n)
	tau := make([]float64, n)

	// Replicated column norms (vn1) with reference norms (vn2) for the
	// downdate safeguard.
	vn1 := make([]float64, n)
	vn2 := make([]float64, n)
	{
		buf := make([]float64, n)
		for j := 0; j < n; j++ {
			col := 0.0
			for i := 0; i < mLoc; i++ {
				v := a.At(i, j)
				col += v * v
			}
			buf[j] = col
		}
		comm.AllreduceSum(buf)
		for j := 0; j < n; j++ {
			vn1[j] = math.Sqrt(buf[j])
			vn2[j] = vn1[j]
		}
	}

	hbuf := make([]float64, 2)
	wbuf := make([]float64, n)
	rbuf := make([]float64, n)
	recomp := make([]bool, n)
	tol3z := math.Sqrt(mat.Eps)

	for j := 0; j < n; j++ {
		// Pivot selection on replicated norms (deterministic everywhere).
		p := j
		for l := j + 1; l < n; l++ {
			if vn1[l] > vn1[p] {
				p = l
			}
		}
		if p != j {
			a.SwapCols(j, p)
			perm.Swap(j, p)
			r.SwapCols(j, p) // populated rows < j only; full swap is safe
			vn1[j], vn1[p] = vn1[p], vn1[j]
			vn2[j], vn2[p] = vn2[p], vn2[j]
		}
		// Collective 1: head element + tail norm of the pivot column.
		iLo := localStart(rowLo, mLoc, j) // first local row with global index ≥ j
		hbuf[0], hbuf[1] = 0, 0
		owner := layout.Owner(j)
		if owner == rank {
			hbuf[0] = a.At(j-rowLo, j)
		}
		for i := iLo; i < mLoc; i++ {
			if rowLo+i == j {
				continue
			}
			v := a.At(i, j)
			hbuf[1] += v * v
		}
		comm.AllreduceSum(hbuf[:2])
		alpha, xnorm := hbuf[0], math.Sqrt(hbuf[1])
		var beta float64
		if xnorm == 0 {
			beta, tau[j] = alpha, 0
		} else {
			beta = -math.Copysign(math.Hypot(alpha, xnorm), alpha)
			tau[j] = (beta - alpha) / beta
			scale := 1 / (alpha - beta)
			for i := iLo; i < mLoc; i++ {
				if rowLo+i == j {
					continue
				}
				a.Set(i, j, a.At(i, j)*scale)
			}
		}
		if owner == rank {
			a.Set(j-rowLo, j, beta)
		}
		// Collective 2: w = A(j:m, j+1:n)ᵀ·v (partial sums reduced).
		if j+1 < n && tau[j] != 0 {
			w := wbuf[:n-j-1]
			for l := range w {
				w[l] = 0
			}
			for i := iLo; i < mLoc; i++ {
				vi := localV(a, rowLo, i, j)
				if vi == 0 {
					continue
				}
				row := a.Data[i*a.Stride+j+1 : i*a.Stride+n]
				for l, av := range row {
					w[l] += vi * av
				}
			}
			comm.AllreduceSum(w)
			// Local trailing update: A −= τ·v·wᵀ.
			t := tau[j]
			for i := iLo; i < mLoc; i++ {
				vi := t * localV(a, rowLo, i, j)
				if vi == 0 {
					continue
				}
				row := a.Data[i*a.Stride+j+1 : i*a.Stride+n]
				for l := range row {
					row[l] -= vi * w[l]
				}
			}
		}
		// Collective 3: broadcast the pivot row (R assembly + downdate).
		rb := rbuf[:n-j]
		for l := range rb {
			rb[l] = 0
		}
		if owner == rank {
			copy(rb, a.Data[(j-rowLo)*a.Stride+j:(j-rowLo)*a.Stride+n])
		}
		comm.AllreduceSum(rb)
		copy(r.Data[j*r.Stride+j:j*r.Stride+n], rb)
		// Downdate replicated norms with the safeguard; batch any exact
		// recomputations into one extra collective.
		needRecompute := false
		for l := j + 1; l < n; l++ {
			if vn1[l] == 0 {
				continue
			}
			rr := math.Abs(rb[l-j]) / vn1[l]
			temp := (1 + rr) * (1 - rr)
			if temp < 0 {
				temp = 0
			}
			ratio := vn1[l] / vn2[l]
			if temp*ratio*ratio <= tol3z {
				recomp[l] = true
				needRecompute = true
			} else {
				vn1[l] *= math.Sqrt(temp)
			}
		}
		if needRecompute {
			buf := wbuf[:n-j-1]
			for l := range buf {
				buf[l] = 0
			}
			for l := j + 1; l < n; l++ {
				if !recomp[l] {
					continue
				}
				s := 0.0
				for i := localStart(rowLo, mLoc, j+1); i < mLoc; i++ {
					v := a.At(i, l)
					s += v * v
				}
				buf[l-j-1] = s
			}
			comm.AllreduceSum(buf)
			for l := j + 1; l < n; l++ {
				if recomp[l] {
					vn1[l] = math.Sqrt(buf[l-j-1])
					vn2[l] = vn1[l]
					recomp[l] = false
				}
			}
		}
	}

	res := &QRCPResult{R: r, Perm: perm, Rank: n}
	if formQ {
		res.QLocal = formQDist(comm, a, tau, layout, rowLo)
	}
	return res
}

// localStart returns the first local row index whose global index is ≥ g.
func localStart(rowLo, mLoc, g int) int {
	s := g - rowLo
	if s < 0 {
		return 0
	}
	if s > mLoc {
		return mLoc
	}
	return s
}

// localV returns the reflector-j entry stored at local row i: the implicit
// 1 on the diagonal row, the stored value below it, 0 above.
func localV(a *mat.Dense, rowLo, i, j int) float64 {
	switch g := rowLo + i; {
	case g == j:
		return 1
	case g > j:
		return a.At(i, j)
	default:
		return 0
	}
}

// qPanel is the compact-WY panel width used when forming Q.
const qPanel = 32

// formQDist accumulates Q = H₁…H_n·[I;0] with blocked compact-WY updates:
// per panel, one Allreduce builds the global VᵀV (for the T factor) and
// one reduces W = Vᵀ·Q.
func formQDist(comm Comm, a *mat.Dense, tau []float64, layout Layout, rowLo int) *mat.Dense {
	mLoc, n := a.Rows, a.Cols
	q := mat.NewDense(mLoc, n)
	for i := 0; i < mLoc; i++ {
		if g := rowLo + i; g < n {
			q.Set(i, g, 1)
		}
	}
	nblocks := (n + qPanel - 1) / qPanel
	for b := nblocks - 1; b >= 0; b-- {
		j := b * qPanel
		jb := qPanel
		if j+jb > n {
			jb = n - j
		}
		// Materialize the local part of the V panel (m_loc × jb).
		v := mat.NewDense(mLoc, jb)
		for l := 0; l < jb; l++ {
			for i := 0; i < mLoc; i++ {
				v.Set(i, l, localV(a, rowLo, i, j+l))
			}
		}
		// Global S = VᵀV via one Allreduce, then T from S and tau.
		s := mat.NewDense(jb, jb)
		blas.Gram(comm.Engine(), s, v)
		comm.AllreduceSum(s.Data)
		t := buildT(s, tau[j:j+jb])
		// W = Vᵀ·Q (global), then Q −= V·(T·W).
		w := mat.NewDense(jb, n)
		blas.Gemm(comm.Engine(), blas.Trans, blas.NoTrans, 1, v, q, 0, w)
		comm.AllreduceSum(w.Data)
		blas.TrmmLeftUpperNoTrans(t, w)
		blas.Gemm(comm.Engine(), blas.NoTrans, blas.NoTrans, -1, v, w, 1, q)
	}
	return q
}

// buildT forms the upper triangular WY block factor T from the global
// Gram matrix S = VᵀV and the reflector scales: T(i,i) = τ_i and
// T(0:i, i) = −τ_i·T(0:i,0:i)·S(0:i, i).
func buildT(s *mat.Dense, tau []float64) *mat.Dense {
	k := len(tau)
	t := mat.NewDense(k, k)
	for i := 0; i < k; i++ {
		t.Set(i, i, tau[i])
		if tau[i] == 0 {
			continue
		}
		for j := 0; j < i; j++ {
			sum := 0.0
			for l := j; l < i; l++ {
				sum += t.At(j, l) * s.At(l, i)
			}
			t.Set(j, i, -tau[i]*sum)
		}
	}
	return t
}
