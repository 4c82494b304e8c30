// Package ooc is the out-of-core execution path: Ite-CholQR-CP over a
// matrix that lives in a binary-format file instead of memory. The
// algorithm's A-side work is already pure row sweeps (Gram, the fused
// permute→TRSM→Gram pass, TRSM), so the package replays each sweep one
// row panel at a time — read panel, apply the panel-granular kernels
// from internal/blas, write the transformed panel to a scratch file —
// with a double-buffered prefetch goroutine keeping the next panel in
// flight while the engine computes on the current one. The resident set
// is two panel buffers plus n×n replicated state, independent of m.
//
// Panels never straddle a slot of the fused kernels' row reduction
// (blas.FusedSlots / blas.FusedSlotBounds) and are fed in row order,
// which makes every floating-point summation land in the same order as
// the in-core kernels: QRCP here returns bit-identical R, pivots, and Q
// to the in-core tsqrcp.Engine.QRCP on the same data, for every panel
// size and engine width. See DESIGN.md §14 for the resident-set and disk-traffic
// model.
package ooc

import (
	"fmt"
	"os"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/mat"
)

// Config controls an out-of-core factorization. The zero value is valid:
// default tolerance semantics are owned by the caller (tsqrcp resolves
// Options before calling down), panel size is auto-tuned from available
// memory, Q is not materialized, and scratch goes to the OS temp dir.
type Config struct {
	// Eps is the P-Chol-CP tolerance ε ∈ [0, 1). Callers resolve their
	// default before passing it down (tsqrcp uses Options.tol()).
	Eps float64
	// PanelRows is the requested resident panel height, capped at the
	// row count; 0 auto-tunes from available memory (see autoPanelRows).
	// The panel size never affects the result bits, only the resident set
	// and I/O granularity.
	PanelRows int
	// QPath, when non-empty, streams the orthonormal factor to this path
	// in the binary matrix format (one extra read+write sweep). When
	// empty the final TRSM sweep is skipped entirely — R and the pivots
	// are already final without it.
	QPath string
	// ScratchDir hosts the working-matrix scratch file (8·m·n bytes);
	// empty selects the OS temp dir. The file is removed on return.
	ScratchDir string
}

// Result is an out-of-core factorization: the usual pivoted-QR outputs
// (Q is nil — it lives in Config.QPath if requested) plus the effective
// panel height the run used.
type Result struct {
	*core.CPResult
	// PanelRows is the resident panel height after auto-tuning and capping.
	PanelRows int
}

// QRCP factorizes the binary-format matrix at path with Ite-CholQR-CP,
// never holding more than two row panels of it in memory. Results are
// bit-identical to the in-core core.IteCholQRCP on the same data. The
// engine e bounds parallel width and carries cancellation.
func QRCP(e *parallel.Engine, path string, cfg Config) (*Result, error) {
	fm, err := mat.OpenBinary(path)
	if err != nil {
		return nil, err
	}
	defer fm.Close()
	m, n := fm.Rows(), fm.Cols()
	if m < n {
		return nil, fmt.Errorf("ooc: QRCP needs a tall matrix, %s is %d×%d", path, m, n)
	}

	panelRows := cfg.PanelRows
	if panelRows <= 0 {
		panelRows = autoPanelRows(n)
	}
	// No panel can be taller than the matrix: clamp so the two resident
	// buffers never outweigh a small input (the auto-tuned height is
	// sized for matrices that dwarf memory, not 20k-row files).
	panelRows = min(panelRows, m)

	sw := &fileSweeper{
		e:          e,
		m:          m,
		n:          n,
		sched:      panelSchedule(m, panelRows),
		in:         fm,
		scratchDir: cfg.ScratchDir,
	}
	sw.bufs[0] = mat.NewDense(panelRows, n)
	sw.bufs[1] = mat.NewDense(panelRows, n)
	sw.accs = make([]*mat.Dense, blas.FusedSlots(m))
	for i := range sw.accs {
		sw.accs[i] = mat.NewDense(n, n)
	}
	defer sw.cleanup()

	if cfg.QPath != "" {
		qw, err := mat.NewBinaryWriterFile(cfg.QPath, m, n)
		if err != nil {
			return nil, err
		}
		sw.qw = qw
	}

	res, err := core.IteCholQRCPSweeps(e, n, sw, cfg.Eps, n, nil)
	if err != nil {
		if sw.qw != nil {
			sw.qw.Close()
			os.Remove(cfg.QPath)
		}
		return nil, err
	}
	if sw.qw != nil {
		if err := sw.qw.Close(); err != nil {
			os.Remove(cfg.QPath)
			return nil, fmt.Errorf("ooc: finalizing %s: %w", cfg.QPath, err)
		}
	}
	return &Result{CPResult: res, PanelRows: panelRows}, nil
}
