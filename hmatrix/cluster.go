package hmatrix

import (
	"fmt"
	"math"

	tsqrcp "repro"
	"repro/mat"
)

// cluster is a node of a bounding-box cluster tree over a permuted
// index range of the point set.
type cluster struct {
	lo, hi      int // range into the permutation array
	bmin, bmax  []float64
	left, right *cluster
}

func (c *cluster) leaf() bool { return c.left == nil }

func (c *cluster) diam() float64 {
	s := 0.0
	for d := range c.bmin {
		e := c.bmax[d] - c.bmin[d]
		s += e * e
	}
	return math.Sqrt(s)
}

func dist(a, b *cluster) float64 {
	s := 0.0
	for d := range a.bmin {
		gap := 0.0
		if a.bmax[d] < b.bmin[d] {
			gap = b.bmin[d] - a.bmax[d]
		} else if b.bmax[d] < a.bmin[d] {
			gap = a.bmin[d] - b.bmax[d]
		}
		s += gap * gap
	}
	return math.Sqrt(s)
}

// buildCluster recursively splits the index range along the widest
// bounding-box dimension, permuting idx in place.
func buildCluster(pts [][]float64, idx []int, lo, hi, leafSize int) *cluster {
	dims := len(pts[0])
	c := &cluster{lo: lo, hi: hi, bmin: make([]float64, dims), bmax: make([]float64, dims)}
	for d := 0; d < dims; d++ {
		c.bmin[d] = math.Inf(1)
		c.bmax[d] = math.Inf(-1)
	}
	for _, p := range idx[lo:hi] {
		for d, v := range pts[p] {
			if v < c.bmin[d] {
				c.bmin[d] = v
			}
			if v > c.bmax[d] {
				c.bmax[d] = v
			}
		}
	}
	if hi-lo <= leafSize {
		return c
	}
	// Widest dimension; split at its midpoint, cardinality fallback.
	wd, wext := 0, -1.0
	for d := 0; d < dims; d++ {
		if e := c.bmax[d] - c.bmin[d]; e > wext {
			wd, wext = d, e
		}
	}
	mid := 0.5 * (c.bmin[wd] + c.bmax[wd])
	split := partitionIdx(pts, idx, lo, hi, wd, mid)
	if split == lo || split == hi {
		split = (lo + hi) / 2
	}
	c.left = buildCluster(pts, idx, lo, split, leafSize)
	c.right = buildCluster(pts, idx, split, hi, leafSize)
	return c
}

// partitionIdx reorders idx[lo:hi] so points with coordinate ≤ mid along
// dim come first; returns the boundary.
func partitionIdx(pts [][]float64, idx []int, lo, hi, dim int, mid float64) int {
	i, j := lo, hi-1
	for i <= j {
		for i <= j && pts[idx[i]][dim] <= mid {
			i++
		}
		for i <= j && pts[idx[j]][dim] > mid {
			j--
		}
		if i < j {
			idx[i], idx[j] = idx[j], idx[i]
			i++
			j--
		}
	}
	return i
}

// block is one node of the block cluster tree.
type block struct {
	row, col *cluster
	// Exactly one of the following three is populated.
	dense    *mat.Dense // inadmissible leaf
	u, v     *mat.Dense // admissible low-rank block: u (rows×k), v (k×cols)
	children []*block   // subdivided block
}

// build clusters the points xs and ys, each viewed as a one-coordinate
// point, and compresses the kernel k over them.
func build(xs, ys []float64, k Kernel, opts *Options) (*HMatrix, error) {
	xpts, ypts := points1D(xs), points1D(ys)
	ridx, cidx := identityIdx(len(xpts)), identityIdx(len(ypts))
	rt := buildCluster(xpts, ridx, 0, len(xpts), opts.leafSize())
	ct := buildCluster(ypts, cidx, 0, len(ypts), opts.leafSize())
	eval := func(r, c *cluster) *mat.Dense {
		return evalBlock(xs, ys, ridx[r.lo:r.hi], cidx[c.lo:c.hi], k)
	}
	root, err := buildBlock(rt, ct, eval, opts)
	if err != nil {
		return nil, err
	}
	return &HMatrix{root: root, rows: len(xs), cols: len(ys), rowIdx: nilIfIdentity(ridx), colIdx: nilIfIdentity(cidx)}, nil
}

func identityIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// nilIfIdentity drops a tree order that is the original order, so
// MatVec skips its gather or scatter.
func nilIfIdentity(idx []int) []int {
	for i, v := range idx {
		if i != v {
			return idx
		}
	}
	return nil
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
func evalBlock(xs, ys []float64, rows, cols []int, k Kernel) *mat.Dense {
	m := mat.NewDense(len(rows), len(cols))
	for i, p := range rows {
		x, row := xs[p], m.Row(i)[:len(cols)]
		for j, q := range cols {
			row[j] = k(x, ys[q])
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
