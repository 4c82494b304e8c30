package blas

import "math"

// Dot returns xᵀy for equal-length contiguous vectors.
//
//repolint:hotpath
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("blas: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy computes y += alpha·x.
//
//repolint:hotpath
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("blas: Axpy length mismatch")
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scal computes x *= alpha.
func Scal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Nrm2 returns ‖x‖₂ with scaling to avoid overflow/underflow.
func Nrm2(x []float64) float64 {
	scale, ssq := 0.0, 1.0
	for _, v := range x {
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

// Swap exchanges the contents of x and y.
func Swap(x, y []float64) {
	if len(x) != len(y) {
		panic("blas: Swap length mismatch")
	}
	for i := range x {
		x[i], y[i] = y[i], x[i]
	}
}

// Copy copies x into y.
func Copy(x, y []float64) {
	if len(x) != len(y) {
		panic("blas: Copy length mismatch")
	}
	copy(y, x)
}
