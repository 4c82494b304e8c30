package lapack

import (
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/mat"
)

// potrfBlock is the panel width of the blocked Cholesky; the trailing
// update is then a Level-3 Syrk.
const potrfBlock = 64

// PotrfUpper computes the Cholesky factorization A = RᵀR of a symmetric
// positive definite matrix, overwriting the upper triangle of a with R.
// The strict lower triangle is not referenced and not modified (LAPACK
// DPOTRF('U') semantics). On breakdown it returns
// *NotPositiveDefiniteError with the failing pivot index; the contents of
// a are then unspecified. The engine e bounds the parallel width of the
// trailing Level-3 updates.
func PotrfUpper(e *parallel.Engine, a *mat.Dense) error {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("lapack: PotrfUpper on %d×%d", a.Rows, a.Cols))
	}
	n := a.Rows
	sp := trace.Region(trace.KernelPotrf)
	defer sp.End()
	trace.AddFlops(trace.KernelPotrf, int64(n)*int64(n)*int64(n)/3)
	for k := 0; k < n; k += potrfBlock {
		kb := min(potrfBlock, n-k)
		akk := a.Slice(k, k+kb, k, k+kb)
		if err := potrfUnblocked(akk); err != nil {
			perr := err.(*NotPositiveDefiniteError)
			perr.Index += k
			return perr
		}
		if k+kb < n {
			a12 := a.Slice(k, k+kb, k+kb, n)
			blas.TrsmLeftUpperTrans(akk, a12)
			a22 := a.Slice(k+kb, n, k+kb, n)
			blas.SyrkUpperTrans(e, a12, a22)
		}
	}
	return nil
}

func potrfUnblocked(a *mat.Dense) error {
	n := a.Rows
	for j := 0; j < n; j++ {
		d := a.Data[j*a.Stride+j]
		for k := 0; k < j; k++ {
			v := a.Data[k*a.Stride+j]
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return &NotPositiveDefiniteError{Index: j}
		}
		rjj := math.Sqrt(d)
		a.Data[j*a.Stride+j] = rjj
		inv := 1 / rjj
		for i := j + 1; i < n; i++ {
			s := a.Data[j*a.Stride+i]
			for k := 0; k < j; k++ {
				s -= a.Data[k*a.Stride+j] * a.Data[k*a.Stride+i]
			}
			a.Data[j*a.Stride+i] = s * inv
		}
	}
	return nil
}

// ZeroLower clears the strict lower triangle of a square matrix, turning a
// Potrf result into an explicit upper triangular R.
func ZeroLower(a *mat.Dense) {
	for i := 1; i < a.Rows; i++ {
		row := a.Data[i*a.Stride : i*a.Stride+min(i, a.Cols)]
		for j := range row {
			row[j] = 0
		}
	}
}
