package subspace

import (
	"fmt"
	"sort"

	"repro/mat"
)

// CSR is a compressed sparse row matrix, provided so the eigensolver
// can run on large sparse operators (graph Laplacians, discretized PDEs)
// without densifying them.
type CSR struct {
	N      int // square dimension
	RowPtr []int
	ColIdx []int
	Val    []float64
}

// Triplet is one (row, col, value) entry of a sparse matrix in
// coordinate form.
type Triplet struct {
	Row, Col int
	Val      float64
}

// NewCSR assembles a CSR matrix from coordinate triplets; duplicate
// (row, col) entries are summed.
func NewCSR(n int, entries []Triplet) *CSR {
	for _, e := range entries {
		if e.Row < 0 || e.Row >= n || e.Col < 0 || e.Col >= n {
			panic(fmt.Sprintf("subspace: triplet (%d,%d) outside %d×%d", e.Row, e.Col, n, n))
		}
	}
	sorted := append([]Triplet(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	c := &CSR{N: n, RowPtr: make([]int, n+1)}
	for i := 0; i < len(sorted); {
		j := i
		v := 0.0
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		if v != 0 {
			c.ColIdx = append(c.ColIdx, sorted[i].Col)
			c.Val = append(c.Val, v)
			c.RowPtr[sorted[i].Row+1]++
		}
		i = j
	}
	for r := 0; r < n; r++ {
		c.RowPtr[r+1] += c.RowPtr[r]
	}
	return c
}

// Dim implements Operator.
func (c *CSR) Dim() int { return c.N }

// Apply implements Operator: dst = A·x column-wise.
func (c *CSR) Apply(dst, x *mat.Dense) {
	if x.Rows != c.N || dst.Rows != c.N || dst.Cols != x.Cols {
		panic(fmt.Sprintf("subspace: CSR.Apply dims dst %d×%d, x %d×%d for n=%d",
			dst.Rows, dst.Cols, x.Rows, x.Cols, c.N))
	}
	for i := 0; i < c.N; i++ {
		drow := dst.Data[i*dst.Stride : i*dst.Stride+dst.Cols]
		for j := range drow {
			drow[j] = 0
		}
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			v := c.Val[p]
			xrow := x.Data[c.ColIdx[p]*x.Stride : c.ColIdx[p]*x.Stride+x.Cols]
			for j, xv := range xrow {
				drow[j] += v * xv
			}
		}
	}
}

// PathLaplacian builds the n-point 1-D graph Laplacian (tridiagonal
// 2,−1 stencil with Neumann ends) — a convenient symmetric test operator
// with known spectrum.
func PathLaplacian(n int) *CSR {
	var ts []Triplet
	for i := 0; i < n; i++ {
		deg := 0.0
		if i > 0 {
			ts = append(ts, Triplet{i, i - 1, -1})
			deg++
		}
		if i < n-1 {
			ts = append(ts, Triplet{i, i + 1, -1})
			deg++
		}
		ts = append(ts, Triplet{i, i, deg})
	}
	return NewCSR(n, ts)
}
