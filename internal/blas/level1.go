package blas

import "math"

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
