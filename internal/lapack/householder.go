package lapack

import (
	"math"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/mat"
)

// Larfg generates an elementary Householder reflector H = I − τ·v·vᵀ with
// v[0] = 1 such that H·[alpha; x] = [beta; 0]. On return x holds v[1:],
// and beta, tau are returned. If x is zero and alpha needs no change,
// tau = 0 and H = I. Includes the LAPACK rescaling loop so subnormal
// columns still produce accurate reflectors.
func Larfg(alpha float64, x []float64) (beta, tau float64) {
	xnorm := blas.Nrm2(x)
	if xnorm == 0 {
		return alpha, 0
	}
	beta = -math.Copysign(lapy2(alpha, xnorm), alpha)
	const safmin = 2.0041683600089728e-292 // dlamch('S')/dlamch('E')
	cnt := 0
	for math.Abs(beta) < safmin && cnt < 20 {
		blas.Scal(1/safmin, x)
		beta /= safmin
		alpha /= safmin
		cnt++
		xnorm = blas.Nrm2(x)
		beta = -math.Copysign(lapy2(alpha, xnorm), alpha)
	}
	tau = (beta - alpha) / beta
	blas.Scal(1/(alpha-beta), x)
	for ; cnt > 0; cnt-- {
		beta *= safmin
	}
	return beta, tau
}

// lapy2 returns sqrt(x²+y²) without unnecessary overflow.
func lapy2(x, y float64) float64 {
	ax, ay := math.Abs(x), math.Abs(y)
	w, z := ax, ay
	if ay > ax {
		w, z = ay, ax
	}
	if z == 0 {
		return w
	}
	r := z / w
	return w * math.Sqrt(1+r*r)
}

// gatherCol copies column j of a, rows [i0, a.Rows), into dst.
func gatherCol(a *mat.Dense, i0, j int, dst []float64) {
	for i := i0; i < a.Rows; i++ {
		dst[i-i0] = a.Data[i*a.Stride+j]
	}
}

// scatterCol writes src into column j of a, rows [i0, a.Rows).
func scatterCol(a *mat.Dense, i0, j int, src []float64) {
	for i := i0; i < a.Rows; i++ {
		a.Data[i*a.Stride+j] = src[i-i0]
	}
}

// applyReflectorLeft applies H = I − τ·v·vᵀ to c from the left:
// c := c − τ·v·(vᵀc). v has length c.Rows (v[0] is explicit). work must
// have length ≥ c.Cols.
func applyReflectorLeft(e *parallel.Engine, tau float64, v []float64, c *mat.Dense, work []float64) {
	if tau == 0 || c.Cols == 0 || c.Rows == 0 {
		return
	}
	w := work[:c.Cols]
	blas.Gemv(e, blas.Trans, 1, c, v, 0, w)
	blas.Ger(e, -tau, v, w, c)
}

// larft forms the upper triangular block factor T of the compact WY
// representation: H₁…H_k = I − V·T·Vᵀ, where v is m×k with explicit unit
// diagonal and zeros above it. T must be k×k.
func larft(v *mat.Dense, tau []float64, t *mat.Dense) {
	k := v.Cols
	ws := mat.GetWorkspace(1, k, false)
	defer mat.PutWorkspace(ws)
	scratch := ws.Data
	for i := 0; i < k; i++ {
		t.Set(i, i, tau[i])
		if i == 0 || tau[i] == 0 {
			for j := 0; j < i; j++ {
				t.Set(j, i, 0)
			}
			if tau[i] == 0 && i > 0 {
				continue
			}
			continue
		}
		// w = V(:, 0:i)ᵀ · V(:, i), then T(0:i, i) = −τ_i · T(0:i,0:i) · w.
		w := scratch[:i]
		for j := range w {
			w[j] = 0
		}
		for r := 0; r < v.Rows; r++ {
			vi := v.Data[r*v.Stride+i]
			if vi == 0 {
				continue
			}
			row := v.Data[r*v.Stride : r*v.Stride+i]
			for j, x := range row {
				w[j] += x * vi
			}
		}
		// Triangular multiply T(0:i,0:i)·w into column i of T.
		for j := 0; j < i; j++ {
			s := 0.0
			for l := j; l < i; l++ {
				s += t.At(j, l) * w[l]
			}
			t.Set(j, i, -tau[i]*s)
		}
	}
}

// trmmLeftUpperTransSmall computes B := Tᵀ·B in place for small upper
// triangular T. Rows are processed in decreasing order so each output row
// only reads not-yet-overwritten rows.
func trmmLeftUpperTransSmall(t, b *mat.Dense) {
	n := b.Rows
	for i := n - 1; i >= 0; i-- {
		bi := b.Data[i*b.Stride : i*b.Stride+b.Cols]
		tii := t.At(i, i)
		for j := range bi {
			bi[j] *= tii
		}
		for k := 0; k < i; k++ {
			c := t.At(k, i) // Tᵀ[i,k]
			if c == 0 {
				continue
			}
			bk := b.Data[k*b.Stride : k*b.Stride+b.Cols]
			for j := range bi {
				bi[j] += c * bk[j]
			}
		}
	}
}

// larfbLeft applies the block reflector to c from the left:
// trans=true applies (I − V·T·Vᵀ)ᵀ (the forward QR update);
// trans=false applies I − V·T·Vᵀ (used when forming Q).
// v is m×k with explicit unit-diagonal lower-trapezoidal structure.
func larfbLeft(e *parallel.Engine, trans bool, v, t, c *mat.Dense) {
	if c.Cols == 0 || v.Cols == 0 {
		return
	}
	k := v.Cols
	w := mat.GetWorkspace(k, c.Cols, false)
	defer mat.PutWorkspace(w)
	blas.Gemm(e, blas.Trans, blas.NoTrans, 1, v, c, 0, w) // W = Vᵀ·C
	if trans {
		trmmLeftUpperTransSmall(t, w) // W = Tᵀ·W
	} else {
		blas.TrmmLeftUpperNoTrans(t, w) // W = T·W
	}
	blas.Gemm(e, blas.NoTrans, blas.NoTrans, -1, v, w, 1, c) // C −= V·W
}

// extractV materializes the unit lower-trapezoidal reflector panel stored
// in a(i0:m, j0:j0+k) into a pooled (m−i0)×k matrix with explicit ones on
// the diagonal and zeros above. The caller owns the result and should
// release it with mat.PutWorkspace when done.
func extractV(a *mat.Dense, i0, j0, k int) *mat.Dense {
	m := a.Rows - i0
	v := mat.GetWorkspace(m, k, true)
	for j := 0; j < k; j++ {
		v.Set(j, j, 1)
		for i := j + 1; i < m; i++ {
			v.Set(i, j, a.At(i0+i, j0+j))
		}
	}
	return v
}
