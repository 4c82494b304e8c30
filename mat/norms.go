package mat

import "math"

// FrobeniusNorm returns ‖m‖_F, guarding against overflow by scaling.
func (m *Dense) FrobeniusNorm() float64 {
	scale, ssq := 0.0, 1.0
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for _, v := range row {
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
	}
	return scale * math.Sqrt(ssq)
}

// MaxAbs returns the largest absolute element value (the max norm).
func (m *Dense) MaxAbs() float64 {
	max := 0.0
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for _, v := range row {
			if av := math.Abs(v); av > max {
				max = av
			}
		}
	}
	return max
}

// ColNorm2 returns the Euclidean norm of column j, with overflow guarding.
func (m *Dense) ColNorm2(j int) float64 {
	scale, ssq := 0.0, 1.0
	for i := 0; i < m.Rows; i++ {
		v := m.Data[i*m.Stride+j]
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

// OneNorm returns the maximum absolute column sum ‖m‖₁.
func (m *Dense) OneNorm() float64 {
	sums := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j, v := range row {
			sums[j] += math.Abs(v)
		}
	}
	max := 0.0
	for _, s := range sums {
		if s > max {
			max = s
		}
	}
	return max
}

// EqualApprox reports whether a and b have the same shape and agree
// element-wise within absolute tolerance tol.
func EqualApprox(a, b *Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra := a.Data[i*a.Stride : i*a.Stride+a.Cols]
		rb := b.Data[i*b.Stride : i*b.Stride+b.Cols]
		for j := range ra {
			if d := ra[j] - rb[j]; d < -tol || d > tol || math.IsNaN(d) {
				return false
			}
		}
	}
	return true
}
