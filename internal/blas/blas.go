// Package blas implements the dense linear-algebra kernels the library is
// built on: Level-1 vector operations, Level-2 matrix-vector operations,
// and cache-blocked, goroutine-parallel Level-3 matrix-matrix operations.
//
// It plays the role of the vendor BLAS (Intel MKL, Fujitsu SSL2) in the
// paper's reference implementation. The performance property that matters
// for reproducing the paper is preserved: Level-3 kernels (Gemm, Syrk,
// Trsm) run on register-tiled fused multiply-add kernels (quad.go) and
// are parallel across cores, while Level-2
// kernels (Gemv, Ger) stream the whole matrix through memory once per call
// and are bandwidth-bound. Cholesky-QR-type algorithms spend ~all their
// time in Level 3; Householder QRCP spends half its flops in Level 2 —
// that asymmetry is what Figures 4–7 of the paper measure.
//
// All kernels operate on row-major mat.Dense values and respect strides,
// so they compose with submatrix views without copying.
package blas

import (
	"fmt"

	"repro/mat"
)

// Transpose selects op(X) = X or Xᵀ for Level-3 kernels.
type Transpose bool

const (
	NoTrans Transpose = false
	Trans   Transpose = true
)

func dims(t Transpose, m *mat.Dense) (rows, cols int) {
	if t == Trans {
		return m.Cols, m.Rows
	}
	return m.Rows, m.Cols
}

func checkGemm(tA, tB Transpose, a, b, c *mat.Dense) (m, n, k int) {
	am, ak := dims(tA, a)
	bk, bn := dims(tB, b)
	if ak != bk {
		panic(fmt.Sprintf("blas: Gemm inner dimension mismatch %d vs %d", ak, bk))
	}
	if c.Rows != am || c.Cols != bn {
		panic(fmt.Sprintf("blas: Gemm output %d×%d, want %d×%d", c.Rows, c.Cols, am, bn))
	}
	return am, bn, ak
}
