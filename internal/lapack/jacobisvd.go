package lapack

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/mat"
)

// JacobiSVD computes the thin SVD a = U·diag(s)·Vᵀ of a tall matrix
// (m ≥ n) by one-sided Jacobi: the columns of a working copy are rotated
// until they are mutually orthogonal; their norms are the singular
// values (descending, ties in column order), the normalized columns
// form U, and the accumulated rotations give V.
func JacobiSVD(a *mat.Dense) (u *mat.Dense, s []float64, v *mat.Dense) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Sprintf("lapack: JacobiSVD needs m ≥ n, got %d×%d", m, n))
	}
	w := a.Clone()
	z := mat.Identity(n)
	jacobiRotate(w, z)
	order, s := descendingNorms(w)
	u = mat.NewDense(m, n)
	v = mat.NewDense(n, n)
	for j, p := range order {
		inv := 0.0
		if s[j] > 0 {
			inv = 1 / s[j]
		}
		for i := 0; i < m; i++ {
			u.Set(i, j, w.At(i, p)*inv)
		}
		for i := 0; i < n; i++ {
			v.Set(i, j, z.At(i, p))
		}
	}
	return u, s, v
}

// JacobiSVDValues returns the singular values of a in descending order,
// computed by one-sided Jacobi rotations on a copy. One-sided Jacobi is
// slow but extremely accurate even for tiny singular values, which is
// exactly what the accuracy experiments (κ₂(R₁₁), ‖R₂₂‖₂ in Fig. 2)
// need.
func JacobiSVDValues(a *mat.Dense) []float64 {
	if a.Rows < a.Cols {
		// Work on the transpose; singular values are shared.
		return JacobiSVDValues(a.T())
	}
	w := a.Clone()
	jacobiRotate(w, nil)
	_, s := descendingNorms(w)
	return s
}

// jacobiRotate applies one-sided Jacobi sweeps to the columns of w until
// every pair is orthogonal to working precision (or 60 sweeps pass). When
// z is non-nil each rotation is also applied to its columns.
func jacobiRotate(w, z *mat.Dense) {
	m, n := w.Rows, w.Cols
	const (
		maxSweeps = 60
		tol       = 1e-15
	)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var app, aqq, apq float64
				for i := 0; i < m; i++ {
					vp := w.Data[i*w.Stride+p]
					vq := w.Data[i*w.Stride+q]
					app += vp * vp
					aqq += vq * vq
					apq += vp * vq
				}
				if math.Abs(apq) <= tol*math.Sqrt(app*aqq) || apq == 0 {
					continue
				}
				rotated = true
				// Two-sided rotation angle that annihilates apq.
				zeta := (aqq - app) / (2 * apq)
				var t float64
				if zeta >= 0 {
					t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
				} else {
					t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				rotateCols(w, p, q, c, s)
				if z != nil {
					rotateCols(z, p, q, c, s)
				}
			}
		}
		if !rotated {
			break
		}
	}
}

// rotateCols replaces columns p and q of x by c·x_p − s·x_q and
// s·x_p + c·x_q.
func rotateCols(x *mat.Dense, p, q int, c, s float64) {
	for i := 0; i < x.Rows; i++ {
		vp := x.Data[i*x.Stride+p]
		vq := x.Data[i*x.Stride+q]
		x.Data[i*x.Stride+p] = c*vp - s*vq
		x.Data[i*x.Stride+q] = s*vp + c*vq
	}
}

// descendingNorms returns w's column norms in descending order and the
// column each came from; equal norms keep their column order.
func descendingNorms(w *mat.Dense) (order []int, norms []float64) {
	n := w.Cols
	all := make([]float64, n)
	order = make([]int, n)
	for j := range all {
		all[j] = w.ColNorm2(j)
		order[j] = j
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(all[b], all[a]) })
	norms = make([]float64, n)
	for j, p := range order {
		norms[j] = all[p]
	}
	return order, norms
}

// Cond2 returns the 2-norm condition number σ_max/σ_min of a. It returns
// +Inf when the smallest singular value is zero.
func Cond2(a *mat.Dense) float64 {
	sv := JacobiSVDValues(a)
	if len(sv) == 0 {
		return 1
	}
	smin := sv[len(sv)-1]
	if smin == 0 {
		return math.Inf(1)
	}
	return sv[0] / smin
}

// Norm2 returns the spectral norm σ_max of a.
func Norm2(a *mat.Dense) float64 {
	if a.Rows == 0 || a.Cols == 0 {
		return 0
	}
	sv := JacobiSVDValues(a)
	return sv[0]
}
