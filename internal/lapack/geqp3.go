package lapack

import (
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/mat"
)

// qp3Block is the panel width of the blocked QRCP.
const qp3Block = 32

// Geqp3 computes the QR factorization with column pivoting A·P = Q·R using
// the blocked BLAS-3 algorithm of Quintana-Ortí, Sun and Bischof (the
// LAPACK DGEQP3 structure): within a panel only the pivot column and pivot
// row are updated (Level 2), and the bulk of the trailing-matrix update is
// deferred to one GEMM per panel (Level 3). As the paper notes (§II-C),
// even so roughly half the flops remain in Level-2 form — which is why
// Cholesky-QR-type methods win on tall-skinny problems.
//
// On return a holds R in its upper triangle and the reflectors below, tau
// the reflector scales, and jpvt (length n, overwritten) maps position j
// to the original column index: (A·P)(:, j) = A(:, jpvt[j]). The engine e bounds the
// parallel width (nil selects the default engine).
func Geqp3(e *parallel.Engine, a *mat.Dense, tau []float64, jpvt mat.Perm) {
	Geqp3Partial(e, a, tau, jpvt, min(a.Rows, a.Cols))
}

// Geqp3Partial is Geqp3 stopped after the first maxK pivot columns have
// been factored — the truncated Householder QRCP used as the baseline for
// low-rank approximation. On return the leading maxK rows of the upper
// triangle hold R₁ = [R₁₁ R₁₂] of the truncated factorization
// A·P ≈ Q₁·R₁; trailing columns beyond maxK are the updated (but
// unfactored) remainder.
func Geqp3Partial(e *parallel.Engine, a *mat.Dense, tau []float64, jpvt mat.Perm, maxK int) {
	m, n := a.Rows, a.Cols
	k := min(m, n)
	if maxK < k {
		k = maxK
	}
	if k < 0 {
		panic(fmt.Sprintf("lapack: Geqp3Partial maxK %d < 0", maxK))
	}
	if len(tau) < k {
		panic(fmt.Sprintf("lapack: Geqp3 tau length %d < %d", len(tau), k))
	}
	if len(jpvt) != n {
		panic(fmt.Sprintf("lapack: Geqp3 jpvt length %d != %d", len(jpvt), n))
	}
	sp := trace.Region(trace.KernelGeqp3)
	defer sp.End()
	// QRCP flop count for k factored columns: 4mnk − 2(m+n)k² + (4/3)k³.
	trace.AddFlops(trace.KernelGeqp3,
		4*int64(m)*int64(n)*int64(k)-2*int64(m+n)*int64(k)*int64(k)+4*int64(k)*int64(k)*int64(k)/3)
	for j := range jpvt {
		jpvt[j] = j
	}
	vn1 := make([]float64, n)
	vn2 := make([]float64, n)
	for j := 0; j < n; j++ {
		vn1[j] = a.ColNorm2(j)
		vn2[j] = vn1[j]
	}
	st := &qp3State{e: e, a: a, tau: tau, jpvt: jpvt, vn1: vn1, vn2: vn2,
		colBuf: make([]float64, m), recompute: make([]bool, n)}
	for j := 0; j < k; {
		jb := min(qp3Block, k-j)
		j += st.laqps(j, jb)
	}
}

type qp3State struct {
	e         *parallel.Engine
	a         *mat.Dense
	tau       []float64
	jpvt      mat.Perm
	vn1, vn2  []float64
	colBuf    []float64
	recompute []bool
}

// laqps factors kb ≤ jb columns starting at offset j0 using the deferred
// BLAS-3 update scheme of LAPACK's DLAQPS, returning kb. The block ends
// early if a norm downdate loses accuracy; the flagged norms are
// recomputed after the trailing GEMM.
func (st *qp3State) laqps(j0, jb int) (kb int) {
	a, tau, jpvt, vn1, vn2 := st.a, st.tau, st.jpvt, st.vn1, st.vn2
	m, n := a.Rows, a.Cols
	f := mat.GetWorkspace(n-j0, jb, true)
	auxv := mat.GetFloats(jb, false)
	wrow := mat.GetFloats(n, false)
	defer mat.PutWorkspace(f)
	defer mat.PutFloats(auxv)
	defer mat.PutFloats(wrow)
	sticky := false

	k := 0
	for k < jb && !sticky {
		rk := j0 + k
		// Pivot: remaining column with largest downdated norm.
		p := rk
		for l := rk + 1; l < n; l++ {
			if vn1[l] > vn1[p] {
				p = l
			}
		}
		if p != rk {
			a.SwapCols(rk, p)
			f.SwapRows(p-j0, k)
			jpvt.Swap(rk, p)
			vn1[rk], vn1[p] = vn1[p], vn1[rk]
			vn2[rk], vn2[p] = vn2[p], vn2[rk]
		}
		// Apply the block's previous reflectors to the pivot column:
		// A(rk:m, rk) −= A(rk:m, j0:j0+k) · F(k, 0:k)ᵀ.
		if k > 0 {
			frow := f.Row(k)[:k]
			for i := rk; i < m; i++ {
				arow := a.Data[i*a.Stride+j0 : i*a.Stride+j0+k]
				s := 0.0
				for l, fv := range frow {
					s += arow[l] * fv
				}
				a.Data[i*a.Stride+rk] -= s
			}
		}
		// Generate the Householder reflector on the pivot column.
		v := st.colBuf[:m-rk]
		gatherCol(a, rk, rk, v)
		beta, t := Larfg(v[0], v[1:])
		tau[rk] = t
		v[0] = 1
		scatterCol(a, rk+1, rk, v[1:])
		a.Set(rk, rk, 1) // temporarily expose v₀ = 1 for the row update
		// F(k+1:, k) = τ · A(rk:m, rk+1:n)ᵀ · v  — the Level-2 half.
		if rk+1 < n {
			w := wrow[:n-rk-1]
			blas.Gemv(st.e, blas.Trans, t, a.Slice(rk, m, rk+1, n), v, 0, w)
			for l := rk + 1; l < n; l++ {
				f.Set(l-j0, k, w[l-rk-1])
			}
		}
		for l := 0; l <= k; l++ {
			f.Set(l, k, 0)
		}
		// Incremental F update:
		// F(:, k) −= τ · F(:, 0:k) · (A(rk:m, j0:j0+k)ᵀ · v).
		if k > 0 {
			blas.Gemv(st.e, blas.Trans, -t, a.Slice(rk, m, j0, j0+k), v, 0, auxv[:k])
			for l := 0; l < n-j0; l++ {
				frow := f.Data[l*f.Stride : l*f.Stride+k]
				s := 0.0
				for q, av := range auxv[:k] {
					s += frow[q] * av
				}
				f.Data[l*f.Stride+k] += s
			}
		}
		// Update the pivot row so norm downdating sees current values:
		// A(rk, rk+1:n) −= A(rk, j0:rk+1) · F(rk+1:n, 0:k+1)ᵀ.
		if rk+1 < n {
			arow := a.Data[rk*a.Stride+j0 : rk*a.Stride+rk+1]
			for jj := rk + 1; jj < n; jj++ {
				frow := f.Data[(jj-j0)*f.Stride : (jj-j0)*f.Stride+k+1]
				s := 0.0
				for l, fv := range frow {
					s += arow[l] * fv
				}
				a.Data[rk*a.Stride+jj] -= s
			}
		}
		a.Set(rk, rk, beta)
		// Downdate partial norms; flag columns whose downdate cancelled.
		for jj := rk + 1; jj < n; jj++ {
			if vn1[jj] == 0 {
				continue
			}
			r := math.Abs(a.At(rk, jj)) / vn1[jj]
			temp := (1 + r) * (1 - r)
			if temp < 0 {
				temp = 0
			}
			ratio := vn1[jj] / vn2[jj]
			if temp*ratio*ratio <= tol3z {
				st.recompute[jj] = true
				sticky = true
			} else {
				vn1[jj] *= math.Sqrt(temp)
			}
		}
		k++
	}
	kb = k
	rk := j0 + kb // first unfactored row/column
	// Deferred Level-3 trailing update: A(rk:m, rk:n) −= V · F(kb:, 0:kb)ᵀ.
	if rk < n && rk < m {
		vpanel := a.Slice(rk, m, j0, j0+kb)
		fpart := f.Slice(kb, n-j0, 0, kb)
		trailing := a.Slice(rk, m, rk, n)
		blas.Gemm(st.e, blas.NoTrans, blas.Trans, -1, vpanel, fpart, 1, trailing)
	}
	// Recompute the flagged norms against the fully updated trailing matrix.
	if sticky {
		for jj := rk; jj < n; jj++ {
			if st.recompute[jj] {
				vn1[jj] = partialColNorm(a, rk, jj)
				vn2[jj] = vn1[jj]
				st.recompute[jj] = false
			}
		}
	}
	return kb
}

// tol3z is the LAPACK threshold (√ε) that decides when the incremental
// column-norm downdate has lost too much accuracy and the norm must be
// recomputed — the Drmač–Bujanović safeguard against wrong pivots.
var tol3z = math.Sqrt(mat.Eps)

// partialColNorm returns the 2-norm of column j of a below row i0,
// scaled against overflow.
func partialColNorm(a *mat.Dense, i0, j int) float64 {
	scale, ssq := 0.0, 1.0
	for i := i0; i < a.Rows; i++ {
		v := a.Data[i*a.Stride+j]
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			r := scale / av
			ssq = 1 + ssq*r*r
			scale = av
		} else {
			r := av / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}
