package mat

import "fmt"

// Add computes m += b element-wise.
func (m *Dense) Add(b *Dense) {
	checkSameShape(m, b, "Add")
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		brow := b.Data[i*b.Stride : i*b.Stride+b.Cols]
		for j := range row {
			row[j] += brow[j]
		}
	}
}

// Sub computes m -= b element-wise.
func (m *Dense) Sub(b *Dense) {
	checkSameShape(m, b, "Sub")
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		brow := b.Data[i*b.Stride : i*b.Stride+b.Cols]
		for j := range row {
			row[j] -= brow[j]
		}
	}
}

// Mul computes the product a·b into a new compact matrix. It is a
// convenience for examples and small problems; performance-critical code
// should use the blocked kernels through the algorithm APIs.
func Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul %d×%d by %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Stride : i*a.Stride+a.Cols]
		orow := out.Data[i*out.Stride : i*out.Stride+out.Cols]
		for l, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[l*b.Stride : l*b.Stride+b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func checkSameShape(a, b *Dense, op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %d×%d vs %d×%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
