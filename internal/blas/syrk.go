package blas

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/mat"
)

// SyrkUpperTrans computes the upper triangle of C −= AᵀA for symmetric C
// (n×n) and A (m×n): the trailing update of the blocked Cholesky
// (PotrfUpper). Elements strictly below the diagonal of C are left
// untouched. It runs Gram's kernel (gramRows, on tileTN) through
// the fixed slot reduction (ReduceRows) on the negated upper triangle and
// negates it back. Negation is exact and rounding is symmetric in sign,
// so −(−C + AᵀA) has exactly the bits of C − AᵀA accumulated directly,
// and like Gram the result is bit-identical for every engine width.
func SyrkUpperTrans(e *parallel.Engine, a, c *mat.Dense) {
	n := a.Cols
	if c.Rows != n || c.Cols != n {
		panic(fmt.Sprintf("blas: SyrkUpperTrans C %d×%d, want %d×%d", c.Rows, c.Cols, n, n))
	}
	if a.Rows == 0 || n == 0 {
		return
	}
	sp := trace.Region(trace.KernelSyrk)
	defer sp.End()
	trace.AddFlops(trace.KernelSyrk, int64(a.Rows)*int64(n)*int64(n+1))
	negateUpper(c)
	ReduceRows(e, a.Rows, mulFlops(a.Rows, n, n), c, true, rowJob{a: a}, gramRows)
	negateUpper(c)
}

// negateUpper flips the sign of the upper triangle of the square c.
func negateUpper(c *mat.Dense) {
	for i := 0; i < c.Rows; i++ {
		row := c.Data[i*c.Stride+i : i*c.Stride+c.Cols]
		for j := range row {
			row[j] = -row[j]
		}
	}
}

// SymmetrizeFromUpper copies the strict upper triangle of w onto the strict
// lower triangle.
func SymmetrizeFromUpper(w *mat.Dense) {
	if w.Rows != w.Cols {
		panic(fmt.Sprintf("blas: SymmetrizeFromUpper on %d×%d", w.Rows, w.Cols))
	}
	for i := 0; i < w.Rows; i++ {
		for j := i + 1; j < w.Cols; j++ {
			w.Data[j*w.Stride+i] = w.Data[i*w.Stride+j]
		}
	}
}
