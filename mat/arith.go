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

func checkSameShape(a, b *Dense, op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %d×%d vs %d×%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
