package hmatrix

import (
	"fmt"
	"math"
	"sort"

	tsqrcp "repro"
	"repro/mat"
)

// cluster is a node of the bisection tree over sorted 1-D points: the
// index range [lo, hi), which is also its row (or column) range in the
// matrix, and the interval [min, max] the points span.
type cluster struct {
	lo, hi      int
	min, max    float64
	left, right *cluster
}

func (c *cluster) leaf() bool { return c.left == nil }

func (c *cluster) diam() float64 { return c.max - c.min }

// dist is the gap between two intervals, 0 when they overlap.
func dist(a, b *cluster) float64 { return max(b.min-a.max, a.min-b.max, 0) }

// buildCluster recursively bisects the sorted points pts[lo:hi] at the
// midpoint of their interval, halving the count instead when every point
// falls on one side.
func buildCluster(pts []float64, lo, hi, leafSize int) *cluster {
	c := &cluster{lo: lo, hi: hi, min: pts[lo], max: pts[hi-1]}
	if hi-lo <= leafSize {
		return c
	}
	mid := 0.5 * (c.min + c.max)
	split := lo + sort.Search(hi-lo, func(i int) bool { return pts[lo+i] > mid })
	if split == lo || split == hi {
		split = (lo + hi) / 2
	}
	c.left = buildCluster(pts, lo, split, leafSize)
	c.right = buildCluster(pts, split, hi, leafSize)
	return c
}

// block is one node of the block cluster tree.
type block struct {
	row, col *cluster
	// Exactly one of the following three is populated.
	dense    *mat.Dense // inadmissible leaf
	u, v     *mat.Dense // admissible low-rank block: u (rows×k), v (k×cols)
	children []*block   // subdivided block
}

// build clusters the sorted points xs and ys and compresses the kernel
// k over them.
func build(xs, ys []float64, k Kernel, opts *Options) (*HMatrix, error) {
	rt := buildCluster(xs, 0, len(xs), opts.leafSize())
	ct := buildCluster(ys, 0, len(ys), opts.leafSize())
	eval := func(r, c *cluster) *mat.Dense {
		return evalBlock(xs[r.lo:r.hi], ys[c.lo:c.hi], k)
	}
	root, err := buildBlock(rt, ct, eval, opts)
	if err != nil {
		return nil, err
	}
	return &HMatrix{root: root, rows: len(xs), cols: len(ys)}, nil
}

func admissible(r, c *cluster, eta float64) bool {
	d := dist(r, c)
	if d <= 0 {
		return false
	}
	return math.Min(r.diam(), c.diam()) <= eta*d
}

func buildBlock(r, c *cluster, eval func(r, c *cluster) *mat.Dense, opts *Options) (*block, error) {
	b := &block{row: r, col: c}
	switch {
	case admissible(r, c, opts.eta()):
		if err := compressDense(eval(r, c), opts.tol(), &b.u, &b.v); err != nil {
			return nil, err
		}
	case r.leaf() || c.leaf():
		b.dense = eval(r, c)
	default:
		for _, rc := range []*cluster{r.left, r.right} {
			for _, cc := range []*cluster{c.left, c.right} {
				child, err := buildBlock(rc, cc, eval, opts)
				if err != nil {
					return nil, err
				}
				b.children = append(b.children, child)
			}
		}
	}
	return b, nil
}

// evalBlock evaluates the kernel on the given row and column points.
func evalBlock(xs, ys []float64, k Kernel) *mat.Dense {
	m := mat.NewDense(len(xs), len(ys))
	for i, x := range xs {
		row := m.Row(i)[:len(ys)]
		for j, y := range ys {
			row[j] = k(x, y)
		}
	}
	return m
}

// compressDense factors a dense block into U·V at the given tolerance;
// wide blocks are factored through their tall transpose.
func compressDense(dense *mat.Dense, tol float64, u, v **mat.Dense) error {
	tall := dense
	if dense.Rows < dense.Cols {
		tall = dense.T()
	}
	f, err := tsqrcp.QRCP(tall, nil)
	if err != nil {
		return fmt.Errorf("hmatrix: block (%d×%d): %w", dense.Rows, dense.Cols, err)
	}
	// At least one column, unless the block is zero (Rank 0).
	rank := min(max(f.NumericalRank(tol), 1), f.Rank)
	rperm := mat.NewDense(rank, tall.Cols)
	mat.PermuteCols(rperm, f.R.Slice(0, rank, 0, tall.Cols), f.Perm.Inverse())
	q := f.Q.Slice(0, tall.Rows, 0, rank)
	if tall == dense {
		*u, *v = q.Clone(), rperm
	} else {
		*u, *v = rperm.T(), q.T()
	}
	return nil
}

func (b *block) matvec(dst, x []float64) {
	switch {
	case b.dense != nil:
		d := b.dense
		for i := 0; i < d.Rows; i++ {
			row := d.Data[i*d.Stride : i*d.Stride+d.Cols]
			s := 0.0
			for j, v := range row {
				s += v * x[b.col.lo+j]
			}
			dst[b.row.lo+i] += s
		}
	case b.u != nil:
		k := b.u.Cols
		tmp := make([]float64, k)
		for l := 0; l < k; l++ {
			row := b.v.Data[l*b.v.Stride : l*b.v.Stride+b.v.Cols]
			s := 0.0
			for j, v := range row {
				s += v * x[b.col.lo+j]
			}
			tmp[l] = s
		}
		for i := 0; i < b.u.Rows; i++ {
			row := b.u.Data[i*b.u.Stride : i*b.u.Stride+k]
			s := 0.0
			for l, v := range row {
				s += v * tmp[l]
			}
			dst[b.row.lo+i] += s
		}
	default:
		for _, c := range b.children {
			c.matvec(dst, x)
		}
	}
}

func (b *block) stats(st *Stats) {
	switch {
	case b.dense != nil:
		st.DenseBlocks++
		st.StoredFloats += b.dense.Rows * b.dense.Cols
	case b.u != nil:
		st.LowRankBlocks++
		st.StoredFloats += b.u.Rows*b.u.Cols + b.v.Rows*b.v.Cols
		if b.u.Cols > st.MaxRank {
			st.MaxRank = b.u.Cols
		}
	default:
		for _, c := range b.children {
			c.stats(st)
		}
	}
}
