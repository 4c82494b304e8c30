package tsqrcp

import (
	"fmt"

	"repro/internal/ooc"
	"repro/internal/trace"
)

// FileOptions extends Options for the out-of-core QRCPFile path.
type FileOptions struct {
	Options
	// PanelRows is the resident row-panel height; 0 auto-tunes from
	// available memory (GOMEMLIMIT, then the OS's availability signal).
	// The value never changes the result bits — only the resident set
	// (two panels of PanelRows×n float64s) and the I/O granularity.
	PanelRows int
	// QPath, when non-empty, streams the orthonormal factor to this path
	// in the binary matrix format (mat.ReadBinaryFile reads it back).
	// When empty, Q is not materialized at all and the final
	// reorthogonalization sweep's TRSM is skipped — one fewer full
	// read+write of the matrix when only R and the pivots are needed.
	QPath string
	// ScratchDir hosts the 8·m·n-byte working scratch file; empty
	// selects the OS temp dir. The file is removed before returning.
	ScratchDir string
}

// opts returns the embedded Options, nil-safe.
func (o *FileOptions) opts() *Options {
	if o == nil {
		return nil
	}
	return &o.Options
}

// QRCPFile computes the QR factorization with column pivoting of a
// matrix stored in the binary on-disk format (see mat.WriteBinaryFile
// and the matconv tool), streaming it through a bounded resident set
// instead of loading it: each Gram sweep is one sequential read of the
// file, prefetched panel-by-panel on a dedicated I/O goroutine that
// overlaps the next read with the current panel's compute. Use it when
// the matrix does not fit in memory — the resident set is two row
// panels plus n×n state, regardless of m.
//
// The result is bit-identical to Engine.QRCP on the same data, for
// every panel size and engine width: the out-of-core sweeps replay the
// in-core kernels' exact floating-point summation order (DESIGN.md
// §14). The returned Factorization carries R, Perm, Rank, and
// Iterations; Q is nil — set FileOptions.QPath to stream it to disk.
//
// Only the default strategy (Ite-CholQR-CP) streams this way; other
// strategies return an error.
// The trace layer reports the I/O side under the OOCRead stage and the
// ooc_bytes_read / ooc_prefetch_stalls counters.
func (e *Engine) QRCPFile(path string, opts *FileOptions) (*Factorization, error) {
	o := opts.opts()
	if o.strategy() != StrategyIteCholQRCP {
		return nil, fmt.Errorf("tsqrcp: QRCPFile supports only StrategyIteCholQRCP")
	}
	pe := e.callEngine(o)
	sp := trace.Region(trace.StageTotal)
	defer sp.End()
	cfg := ooc.Config{Eps: o.tol()}
	if opts != nil {
		cfg.PanelRows = opts.PanelRows
		cfg.QPath = opts.QPath
		cfg.ScratchDir = opts.ScratchDir
	}
	res, err := ooc.QRCP(pe, path, cfg)
	if err != nil {
		return nil, err
	}
	return &Factorization{R: res.R, Perm: res.Perm,
		Rank: res.R.Cols, Iterations: res.Iterations}, nil
}

// QRCPFile runs the out-of-core factorization on the default engine;
// see Engine.QRCPFile.
func QRCPFile(path string, opts *FileOptions) (*Factorization, error) {
	return DefaultEngine().QRCPFile(path, opts)
}
