// Package hmatrix implements a compact hierarchical-matrix (H-matrix)
// compressor for kernel matrices — the application domain the paper's
// introduction cites for tall-skinny QRCP (H/H²-matrix solvers compress
// many off-diagonal blocks by low-rank factorization, each one a
// rank-revealing QR of a tall-skinny or short-wide block).
//
// The structure is the classical one: binary cluster trees over the
// source and target points (bisection at the interval midpoint), a
// block cluster tree with the η-admissibility condition, dense storage
// for small inadmissible leaves and truncated pivoted-QR factors U·V for
// admissible blocks. Build compresses a kernel over sorted 1-D points.
package hmatrix

import "fmt"

// Kernel evaluates the interaction between a source point x and a target
// point y.
type Kernel func(x, y float64) float64

// Options configure the compression.
type Options struct {
	// LeafSize is the maximum cluster size stored dense (default 32).
	LeafSize int
	// Eta is the admissibility parameter: a block (τ, σ) is compressed
	// when min(diam τ, diam σ) ≤ Eta · dist(τ, σ) (default 1).
	Eta float64
	// Tol is the relative truncation tolerance of each low-rank block
	// (default 1e-8).
	Tol float64
}

func (o *Options) leafSize() int {
	if o == nil || o.LeafSize < 2 {
		return 32
	}
	return o.LeafSize
}

func (o *Options) eta() float64 {
	if o == nil || o.Eta <= 0 {
		return 1
	}
	return o.Eta
}

func (o *Options) tol() float64 {
	if o == nil || o.Tol <= 0 {
		return 1e-8
	}
	return o.Tol
}

// Build compresses the kernel matrix K[i][j] = k(xs[i], ys[j]) over 1-D
// source (rows) and target (columns) points. Both slices must be sorted
// ascending: every cluster is then an index range of the points, so the
// compressed matrix keeps the given row and column order.
func Build(xs, ys []float64, k Kernel, opts *Options) (*HMatrix, error) {
	if len(xs) == 0 || len(ys) == 0 {
		panic("hmatrix: empty point set")
	}
	for _, pts := range [][]float64{xs, ys} {
		for i := 1; i < len(pts); i++ {
			if pts[i] < pts[i-1] {
				panic("hmatrix: points not sorted")
			}
		}
	}
	return build(xs, ys, k, opts)
}

// HMatrix is a compressed kernel matrix over sorted 1-D point sets.
type HMatrix struct {
	root       *block
	rows, cols int
}

// MatVec computes dst = K·x for a length-cols vector, in O(storage) time.
func (h *HMatrix) MatVec(dst, x []float64) {
	if len(dst) != h.rows || len(x) != h.cols {
		panic(fmt.Sprintf("hmatrix: MatVec dims dst[%d], x[%d] for %d×%d", len(dst), len(x), h.rows, h.cols))
	}
	clear(dst)
	h.root.matvec(dst, x)
}

// Stats summarizes the compression.
type Stats struct {
	DenseBlocks, LowRankBlocks int
	MaxRank                    int
	// StoredFloats counts every stored matrix entry; DenseFloats is the
	// uncompressed size rows×cols.
	StoredFloats, DenseFloats int
}

// CompressionRatio is StoredFloats / DenseFloats.
func (s Stats) CompressionRatio() float64 {
	return float64(s.StoredFloats) / float64(s.DenseFloats)
}

// Stats walks the block tree and reports storage.
func (h *HMatrix) Stats() Stats {
	st := Stats{DenseFloats: h.rows * h.cols}
	h.root.stats(&st)
	return st
}
