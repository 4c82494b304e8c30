package lapack

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/mat"
)

// qrBlock is the panel width of the blocked Householder QR.
const qrBlock = 32

// Geqrf computes the QR factorization A = Q·R by blocked Householder
// transformations (DGEQRF). On return the upper triangle of a holds R and
// the strict lower triangle holds the reflector vectors; tau (length
// min(m,n)) holds the reflector scales. Use Orgqr to materialize Q or
// ExtractR to copy out R. The engine e bounds the parallel width (nil
// selects the default engine).
func Geqrf(e *parallel.Engine, a *mat.Dense, tau []float64) {
	m, n := a.Rows, a.Cols
	k := min(m, n)
	if len(tau) < k {
		panic(fmt.Sprintf("lapack: Geqrf tau length %d < %d", len(tau), k))
	}
	sp := trace.Region(trace.KernelGeqrf)
	defer sp.End()
	// 2mnk − (m+n)k² + (2/3)k³ flops of the Householder QR (k = min(m,n)).
	trace.AddFlops(trace.KernelGeqrf,
		2*int64(m)*int64(n)*int64(k)-int64(m+n)*int64(k)*int64(k)+2*int64(k)*int64(k)*int64(k)/3)
	colBuf := mat.GetFloats(m, false)
	work := mat.GetFloats(n, false)
	defer mat.PutFloats(colBuf)
	defer mat.PutFloats(work)
	for j := 0; j < k; j += qrBlock {
		jb := min(qrBlock, k-j)
		// Factor the panel a(j:m, j:j+jb) with Level-2 updates.
		for jj := j; jj < j+jb; jj++ {
			v := colBuf[:m-jj]
			gatherCol(a, jj, jj, v)
			beta, t := Larfg(v[0], v[1:])
			tau[jj] = t
			v[0] = 1
			// Apply H to the remaining panel columns.
			if jj+1 < j+jb {
				panel := a.Slice(jj, m, jj+1, j+jb)
				applyReflectorLeft(e, t, v, panel, work)
			}
			// Store beta and the reflector back into the column.
			a.Set(jj, jj, beta)
			scatterCol(a, jj+1, jj, v[1:])
		}
		// Blocked update of the trailing matrix: C := (I − V·T·Vᵀ)ᵀ·C.
		if j+jb < n {
			v := extractV(a, j, j, jb)
			t := mat.GetWorkspace(jb, jb, true)
			larft(v, tau[j:j+jb], t)
			trailing := a.Slice(j, m, j+jb, n)
			larfbLeft(e, true, v, t, trailing)
			mat.PutWorkspace(t)
			mat.PutWorkspace(v)
		}
	}
}

// Orgqr overwrites a (holding a Geqrf result in its first k = len(tau)
// columns) with the explicit m×n orthonormal factor Q = H₁…H_k·[I; 0]
// (DORGQR with the thin-Q convention n = a.Cols). The engine e bounds the
// parallel width (nil selects the default engine).
func Orgqr(e *parallel.Engine, a *mat.Dense, tau []float64) {
	m, n := a.Rows, a.Cols
	k := len(tau)
	if k > n {
		panic(fmt.Sprintf("lapack: Orgqr %d reflectors for %d columns", k, n))
	}
	// Save the reflector panels before overwriting a with Q.
	type block struct {
		v *mat.Dense
		t *mat.Dense
		j int
	}
	var blocks []block
	for j := 0; j < k; j += qrBlock {
		jb := min(qrBlock, k-j)
		v := extractV(a, j, j, jb)
		t := mat.GetWorkspace(jb, jb, true)
		larft(v, tau[j:j+jb], t)
		blocks = append(blocks, block{v: v, t: t, j: j})
	}
	// Initialize Q := [I; 0].
	a.Zero()
	for i := 0; i < min(m, n); i++ {
		a.Set(i, i, 1)
	}
	// Apply the block reflectors in reverse: Q = (I−V₁T₁V₁ᵀ)…(I−V_bT_bV_bᵀ)·I.
	for bi := len(blocks) - 1; bi >= 0; bi-- {
		b := blocks[bi]
		sub := a.Slice(b.j, m, b.j, n)
		larfbLeft(e, false, b.v, b.t, sub)
		mat.PutWorkspace(b.t)
		mat.PutWorkspace(b.v)
	}
}

// ExtractR copies the upper triangular factor out of a Geqrf/Geqp3
// result into a fresh n×n matrix (for m ≥ n).
func ExtractR(a *mat.Dense) *mat.Dense {
	n := a.Cols
	if a.Rows < n {
		panic(fmt.Sprintf("lapack: ExtractR needs m ≥ n, got %d×%d", a.Rows, n))
	}
	r := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		copy(r.Data[i*r.Stride+i:i*r.Stride+n], a.Data[i*a.Stride+i:i*a.Stride+n])
	}
	return r
}
