package ooc

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/blas"
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

	in          *mat.FileMatrix // immutable input
	scratch     *mat.FileMatrix // working matrix once written; lazily created
	scratchName string
	scratchDir  string
	onScratch   bool // the current A^(i) lives in scratch, not in

	qPath string            // Q destination; empty skips Finish
	qw    *mat.BinaryWriter // Q writer, opened by Finish
}

// src returns the file currently holding A^(i).
func (s *fileSweeper) src() *mat.FileMatrix {
	if s.onScratch {
		return s.scratch
	}
	return s.in
}

// ensureScratch creates the m×n binary-format scratch file on first
// need, as a fresh file in a private temp directory: ext4 writes a file
// that was truncated to zero back to disk when it is closed, so reusing
// an existing name would cost a full write of the scratch per run. The
// directory is removed by cleanup, not on close, so crashes leave at
// most one stale temp directory.
func (s *fileSweeper) ensureScratch() error {
	if s.scratch != nil {
		return nil
	}
	dir, err := os.MkdirTemp(s.scratchDir, "tsqrcp-ooc-*")
	if err != nil {
		return fmt.Errorf("ooc: creating scratch: %w", err)
	}
	name := filepath.Join(dir, "scratch.tsqrmat")
	fm, err := mat.CreateBinary(name, s.m, s.n)
	if err != nil {
		os.RemoveAll(dir)
		return fmt.Errorf("ooc: creating scratch: %w", err)
	}
	s.scratch, s.scratchName = fm, name
	return nil
}

// writePanel stores a transformed panel at its row offset in scratch.
// Write time is attributed to StageOOCRead (the disk side of the sweep);
// the byte counter tracks reads only, so the one-sequential-read-per-
// sweep invariant stays auditable.
func (s *fileSweeper) writePanel(pd *mat.Dense, p panel) error {
	sp := trace.Region(trace.StageOOCRead)
	err := s.scratch.WriteRows(pd, p.lo)
	sp.End()
	if err != nil {
		return fmt.Errorf("ooc: scratch: %w", err)
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
		s.scratch.Close()
		os.RemoveAll(filepath.Dir(s.scratchName))
		s.scratch = nil
	}
}

// Gram computes w := AᵀA in one sequential read of the working matrix:
// every panel accumulates into its slot's partial with the fixed-order
// panel SYRK, and the partials reduce in ascending slot order — the
// exact summation shape of blas.Gram, hence the same bits. The driver
// calls it once, at n×n, before the first pivoting pass.
func (s *fileSweeper) Gram(w *mat.Dense) error {
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

// FusedPivot runs a pivoting pass out of core: one sequential read of
// A^(i), the permute→TRSM→Gram panel kernel, and one sequential write of
// A^(i+1) to scratch, with the next W — on the last pass the
// reorthogonalization Gram — reduced from the slot partials. The rank
// cap is always n, so w is always n×n.
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

// Finish streams the reorthogonalization TRSM on the k = r.Rows fixed
// columns into an m×k Q file at qPath, created here once the rank is
// known; with no destination the sweep is skipped — R and the pivots
// are already final, saving a full read+write of the matrix. A rank-0
// run writes no file: the binary format holds no empty matrix.
func (s *fileSweeper) Finish(r *mat.Dense) error {
	k := r.Rows
	if s.qPath == "" || k == 0 {
		return nil
	}
	qw, err := mat.NewBinaryWriterFile(s.qPath, s.m, k)
	if err != nil {
		return err
	}
	s.qw = qw
	err = s.runSweep(s.src(), func(p panel, pd *mat.Dense) error {
		qk := pd.Slice(0, pd.Rows, 0, k)
		st := trace.Region(trace.StageTrsm)
		blas.TrsmRightUpperNoTrans(s.e, qk, r)
		st.End()
		sw := trace.Region(trace.StageOOCRead)
		werr := qw.WriteRows(qk)
		sw.End()
		return werr
	})
	if err != nil {
		return err
	}
	trace.AddFlops(trace.StageTrsm, int64(s.m)*int64(k)*int64(k))
	return nil
}
