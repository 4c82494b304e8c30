package lapack

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/mat"
)

// Geqpf computes the QR factorization with column pivoting A·P = Q·R using
// unblocked Level-2 Householder transformations (DGEQPF). It is the
// test oracle for Geqp3, which must choose the same pivots. This is the
// conventional greedy algorithm of the paper's Algorithm 1: at each step
// the remaining column of maximum 2-norm is swapped in, eliminated, and
// the trailing column norms are downdated (with explicit recomputation
// when cancellation makes the downdate unreliable).
//
// On return a holds R in its upper triangle and the reflectors below, tau
// the reflector scales, and jpvt (length n, overwritten) maps position j
// to the original column index: (A·P)(:, j) = A(:, jpvt[j]).
func Geqpf(e *parallel.Engine, a *mat.Dense, tau []float64, jpvt mat.Perm) {
	m, n := a.Rows, a.Cols
	k := min(m, n)
	if len(tau) < k {
		panic(fmt.Sprintf("lapack: Geqpf tau length %d < %d", len(tau), k))
	}
	if len(jpvt) != n {
		panic(fmt.Sprintf("lapack: Geqpf jpvt length %d != %d", len(jpvt), n))
	}
	for j := range jpvt {
		jpvt[j] = j
	}
	vn1 := make([]float64, n)
	vn2 := make([]float64, n)
	for j := 0; j < n; j++ {
		vn1[j] = a.ColNorm2(j)
		vn2[j] = vn1[j]
	}
	colBuf := make([]float64, m)
	work := make([]float64, n)
	for j := 0; j < k; j++ {
		// Greedy pivot: remaining column with the largest (downdated) norm.
		p := j
		for l := j + 1; l < n; l++ {
			if vn1[l] > vn1[p] {
				p = l
			}
		}
		if p != j {
			a.SwapCols(j, p)
			jpvt.Swap(j, p)
			vn1[j], vn1[p] = vn1[p], vn1[j]
			vn2[j], vn2[p] = vn2[p], vn2[j]
		}
		v := colBuf[:m-j]
		gatherCol(a, j, j, v)
		beta, t := Larfg(v[0], v[1:])
		tau[j] = t
		v[0] = 1
		if j+1 < n {
			trailing := a.Slice(j, m, j+1, n)
			applyReflectorLeft(e, t, v, trailing, work)
		}
		a.Set(j, j, beta)
		scatterCol(a, j+1, j, v[1:])
		downdateNorms(a, j, j+1, n, vn1, vn2)
	}
}

// downdateNorms updates the partial column norms vn1[l] for columns
// [lo, hi) after row `row` of the trailing matrix has been eliminated,
// recomputing from scratch when the downdate formula would cancel.
func downdateNorms(a *mat.Dense, row, lo, hi int, vn1, vn2 []float64) {
	for l := lo; l < hi; l++ {
		if vn1[l] == 0 {
			continue
		}
		r := math.Abs(a.At(row, l)) / vn1[l]
		temp := (1 + r) * (1 - r)
		if temp < 0 {
			temp = 0
		}
		ratio := vn1[l] / vn2[l]
		temp2 := temp * ratio * ratio
		if temp2 <= tol3z {
			// Cancellation: recompute the norm of rows below `row`.
			vn1[l] = partialColNorm(a, row+1, l)
			vn2[l] = vn1[l]
		} else {
			vn1[l] *= math.Sqrt(temp)
		}
	}
}
