// Package mat provides the dense row-major matrix type used throughout the
// library, together with permutations, norms, and small utilities.
//
// Matrices are stored row-major with an explicit stride, so contiguous
// sub-blocks (row panels, trailing submatrices) can be viewed without
// copying. Row-major layout matches the 1-D block-row distribution the
// paper uses for its tall-skinny matrices: a panel of consecutive rows is a
// contiguous view.
package mat

import "fmt"

// Dense is a row-major dense matrix. Element (i, j) is Data[i*Stride+j].
// The zero value is an empty matrix.
type Dense struct {
	Rows, Cols int
	Stride     int
	Data       []float64
}

// NewDense returns a zeroed r×c matrix with Stride == c.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Stride: c, Data: make([]float64, r*c)}
}

// NewDenseData wraps data (row-major, stride c) as an r×c matrix without
// copying. len(data) must be at least r*c.
func NewDenseData(r, c int, data []float64) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", r, c))
	}
	if len(data) < r*c {
		panic(fmt.Sprintf("mat: data length %d < %d×%d", len(data), r, c))
	}
	return &Dense{Rows: r, Cols: c, Stride: c, Data: data}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*m.Stride+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: At(%d,%d) out of range %d×%d", i, j, m.Rows, m.Cols))
	}
	return m.Data[i*m.Stride+j]
}

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: Set(%d,%d) out of range %d×%d", i, j, m.Rows, m.Cols))
	}
	m.Data[i*m.Stride+j] = v
}

// Row returns row i as a length-Cols slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("mat: Row(%d) out of range %d", i, m.Rows))
	}
	return m.Data[i*m.Stride : i*m.Stride+m.Cols]
}

// Col copies column j into dst (allocated if nil) and returns it.
func (m *Dense) Col(j int, dst []float64) []float64 {
	if j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: Col(%d) out of range %d", j, m.Cols))
	}
	if dst == nil {
		dst = make([]float64, m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = m.Data[i*m.Stride+j]
	}
	return dst
}

// SetCol assigns column j from src.
func (m *Dense) SetCol(j int, src []float64) {
	if j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: SetCol(%d) out of range %d", j, m.Cols))
	}
	if len(src) != m.Rows {
		panic(fmt.Sprintf("mat: SetCol length %d != rows %d", len(src), m.Rows))
	}
	for i, v := range src {
		m.Data[i*m.Stride+j] = v
	}
}

// Slice returns a view of rows [i0,i1) and columns [j0,j1). The view shares
// storage with m; writes through either are visible in both.
func (m *Dense) Slice(i0, i1, j0, j1 int) *Dense {
	if DebugChecks {
		m.debugCheckHeader("Slice")
	}
	if i0 < 0 || i1 < i0 || i1 > m.Rows || j0 < 0 || j1 < j0 || j1 > m.Cols {
		panic(fmt.Sprintf("mat: Slice(%d,%d,%d,%d) out of range %d×%d", i0, i1, j0, j1, m.Rows, m.Cols))
	}
	v := &Dense{Rows: i1 - i0, Cols: j1 - j0, Stride: m.Stride}
	if v.Rows == 0 || v.Cols == 0 {
		// Empty views carry no storage; zero the stride so row-loop
		// arithmetic (i*Stride) stays within the nil backing slice.
		v.Stride = 0
		return v
	}
	off := i0*m.Stride + j0
	// The last row of the view only needs Cols elements, not a full stride.
	v.Data = m.Data[off : off+(v.Rows-1)*m.Stride+v.Cols]
	return v
}

// RowSlice returns a view of rows [i0,i1) and every column.
func (m *Dense) RowSlice(i0, i1 int) *Dense { return m.Slice(i0, i1, 0, m.Cols) }

// Clone returns a compact deep copy (Stride == Cols).
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	out.Copy(m)
	return out
}

// Copy copies src into m; dimensions must match exactly.
func (m *Dense) Copy(src *Dense) {
	if DebugChecks {
		m.debugCheckHeader("Copy dst")
		src.debugCheckHeader("Copy src")
	}
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mat: Copy %d×%d into %d×%d", src.Rows, src.Cols, m.Rows, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Data[i*m.Stride:i*m.Stride+m.Cols], src.Data[i*src.Stride:i*src.Stride+m.Cols])
	}
}

// Zero sets every element to zero.
func (m *Dense) Zero() {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j := range row {
			row[j] = 0
		}
	}
}

// T returns a compact transposed copy of m.
func (m *Dense) T() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j, v := range row {
			out.Data[j*out.Stride+i] = v
		}
	}
	return out
}

// SwapCols exchanges columns i and j in place.
func (m *Dense) SwapCols(i, j int) {
	if i == j {
		return
	}
	if i < 0 || i >= m.Cols || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: SwapCols(%d,%d) out of range %d", i, j, m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		base := r * m.Stride
		m.Data[base+i], m.Data[base+j] = m.Data[base+j], m.Data[base+i]
	}
}

// SwapRows exchanges rows i and j in place.
func (m *Dense) SwapRows(i, j int) {
	if i == j {
		return
	}
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// IsUpperTriangular reports whether every element strictly below the main
// diagonal has absolute value at most tol.
func (m *Dense) IsUpperTriangular(tol float64) bool {
	for i := 1; i < m.Rows; i++ {
		jmax := i
		if jmax > m.Cols {
			jmax = m.Cols
		}
		for j := 0; j < jmax; j++ {
			v := m.Data[i*m.Stride+j]
			if v < -tol || v > tol {
				return false
			}
		}
	}
	return true
}

// String renders small matrices for debugging; large matrices are abridged.
func (m *Dense) String() string {
	const maxShow = 8
	s := fmt.Sprintf("%d×%d\n", m.Rows, m.Cols)
	rows := m.Rows
	if rows > maxShow {
		rows = maxShow
	}
	cols := m.Cols
	if cols > maxShow {
		cols = maxShow
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			s += fmt.Sprintf(" % .4e", m.Data[i*m.Stride+j])
		}
		if cols < m.Cols {
			s += " ..."
		}
		s += "\n"
	}
	if rows < m.Rows {
		s += " ...\n"
	}
	return s
}
