package ooc

import (
	"fmt"
	"os"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/mat"
)

// fileSweeper implements core.Sweeper over a file-backed working
// matrix. The original input file is read-only; the first sweep that
// mutates A writes its panels to a lazily created scratch file, and
// every later sweep reads and rewrites scratch in place (the prefetcher
// reads strictly ahead of the writer, so in-place is race-free). Each
// method replays exactly the kernel sequence of the in-core
// DenseSweeper, panel by panel on the fused-kernel grid, which is what
// makes the results bit-identical.
type fileSweeper struct {
	e     *parallel.Engine
	m, n  int
	sched []panel
	bufs  [2]*mat.Dense // double-buffered panel storage, panelRows×n each
	accs  []*mat.Dense  // per-slot Gram partials, n×n each

	in         *mat.FileMatrix // immutable input
	scratch    *os.File        // working matrix once written; lazily created
	scratchDir string
	onScratch  bool // the current A^(i) lives in scratch, not in

	qw *mat.BinaryWriter // streaming Q destination; nil skips Finish
}

// src returns the source currently holding A^(i).
func (s *fileSweeper) src() source {
	if s.onScratch {
		return rawSource{f: s.scratch, cols: s.n}
	}
	return fileSource{fm: s.in}
}

// ensureScratch creates the 8·m·n-byte scratch file on first need. The
// name is unlinked by cleanup, not on close, so crashes leave at most
// one stale temp file.
func (s *fileSweeper) ensureScratch() error {
	if s.scratch != nil {
		return nil
	}
	f, err := os.CreateTemp(s.scratchDir, "tsqrcp-ooc-*.scratch")
	if err != nil {
		return fmt.Errorf("ooc: creating scratch: %w", err)
	}
	if err := f.Truncate(8 * int64(s.m) * int64(s.n)); err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("ooc: sizing scratch: %w", err)
	}
	s.scratch = f
	return nil
}

// writePanel stores a transformed panel at its row offset in scratch.
// Write time is attributed to StageOOCRead (the disk side of the sweep);
// the byte counter tracks reads only, so the one-sequential-read-per-
// sweep invariant stays auditable.
func (s *fileSweeper) writePanel(pd *mat.Dense, p panel) error {
	nvals := (p.hi - p.lo) * s.n
	off := 8 * int64(p.lo) * int64(s.n)
	sp := trace.Region(trace.StageOOCRead)
	_, err := s.scratch.WriteAt(f64Bytes(pd.Data[:nvals]), off)
	sp.End()
	if err != nil {
		return fmt.Errorf("ooc: writing scratch rows [%d,%d): %w", p.lo, p.hi, err)
	}
	return nil
}

func (s *fileSweeper) zeroAccs() {
	for _, acc := range s.accs {
		acc.Zero()
	}
}

// cleanup releases the scratch file; the input FileMatrix and Q writer
// are owned by QRCP.
func (s *fileSweeper) cleanup() {
	if s.scratch != nil {
		name := s.scratch.Name()
		s.scratch.Close()
		os.Remove(name)
		s.scratch = nil
	}
}

// Gram computes w := AᵀA in one sequential read of the working matrix:
// every panel accumulates into its slot's partial with the fixed-order
// panel SYRK, and the partials reduce in ascending slot order — the
// exact summation shape of blas.Gram, hence the same bits. The file
// path factors full rank only, so a Gram over fewer than n leading
// columns — the reorthogonalization of a run whose trailing block
// collapsed — is reported as core.ErrStall without the sweep.
func (s *fileSweeper) Gram(w *mat.Dense) error {
	if w.Rows != s.n {
		return core.ErrStall
	}
	s.zeroAccs()
	//repolint:hotpath
	gramPanel := func(p panel, pd *mat.Dense) error {
		blas.GramPanelAcc(s.e, pd, s.accs[p.slot])
		return nil
	}
	sg := trace.Region(trace.StageGram)
	err := s.runSweep(s.src(), gramPanel)
	sg.End()
	if err != nil {
		return err
	}
	trace.AddFlops(trace.StageGram, int64(s.m)*int64(s.n)*int64(s.n+1))
	blas.ReduceGramSlots(w, s.accs)
	return nil
}

// FusedPivot runs the steady-state fused pass out of core: one
// sequential read of A^(i), the permute→TRSM→Gram panel kernel, and one
// sequential write of A^(i+1) to scratch, with the next W reduced from
// the slot partials.
func (s *fileSweeper) FusedPivot(perm mat.Perm, rp, w *mat.Dense) error {
	// Parity with blas.PermTrsmGramFused, which rejects a singular R up
	// front instead of streaming Infs into the working matrix.
	for k := 0; k < s.n; k++ {
		if rp.Data[k*rp.Stride+k] == 0 {
			panic(fmt.Sprintf("ooc: FusedPivot singular R at diagonal %d", k))
		}
	}
	if err := s.ensureScratch(); err != nil {
		return err
	}
	s.zeroAccs()
	//repolint:hotpath
	fusedPanel := func(p panel, pd *mat.Dense) error {
		blas.FusedPanelPivot(s.e, pd, perm, rp, s.accs[p.slot])
		return s.writePanel(pd, p)
	}
	sf := trace.Region(trace.StageFused)
	err := s.runSweep(s.src(), fusedPanel)
	sf.End()
	if err != nil {
		return err
	}
	s.onScratch = true
	trace.AddFlops(trace.StageFused,
		int64(s.m)*int64(s.n)*int64(s.n)+int64(s.m)*int64(s.n)*int64(s.n+1))
	trace.AddBytes(trace.StageFused, 2*8*int64(s.m)*int64(s.n))
	blas.ReduceGramSlots(w, s.accs)
	return nil
}

// Pivot is the unfused permute+TRSM sweep: read, transform, write.
func (s *fileSweeper) Pivot(k int, tp mat.Perm, rp *mat.Dense) error {
	if err := s.ensureScratch(); err != nil {
		return err
	}
	err := s.runSweep(s.src(), func(p panel, pd *mat.Dense) error {
		ss := trace.Region(trace.StageSwap)
		mat.PermuteColsInPlaceEngine(s.e, pd.Slice(0, pd.Rows, k, s.n), tp)
		ss.End()
		st := trace.Region(trace.StageTrsm)
		blas.TrsmRightUpperNoTrans(s.e, pd, rp)
		st.End()
		return s.writePanel(pd, p)
	})
	if err != nil {
		return err
	}
	s.onScratch = true
	trace.AddFlops(trace.StageTrsm, int64(s.m)*int64(s.n)*int64(s.n))
	return nil
}

// Finish streams the reorthogonalization TRSM into the Q destination;
// with no destination the sweep is skipped — R and the pivots are
// already final, saving a full read+write of the matrix.
func (s *fileSweeper) Finish(r *mat.Dense) error {
	if s.qw == nil {
		return nil
	}
	err := s.runSweep(s.src(), func(p panel, pd *mat.Dense) error {
		st := trace.Region(trace.StageTrsm)
		blas.TrsmRightUpperNoTrans(s.e, pd, r)
		st.End()
		sw := trace.Region(trace.StageOOCRead)
		werr := s.qw.WriteRows(pd)
		sw.End()
		return werr
	})
	if err != nil {
		return err
	}
	trace.AddFlops(trace.StageTrsm, int64(s.m)*int64(s.n)*int64(s.n))
	return nil
}
