// Package bad exercises the failing shape of the checks scoped to
// internal/ooc: a panel-sweep loop that never observes cancellation.
package bad

import (
	"repro/internal/parallel"
	"repro/mat"
)

// Sweep launches engine-threaded panel kernels every iteration but never
// checks e.Err(), so a cancelled engine still streams every remaining
// sweep off disk.
func Sweep(e *parallel.Engine, panels []*mat.Dense, g *mat.Dense, iters int) error {
	for it := 0; it < iters; it++ { // want "loop launches engine-threaded kernels but never observes cancellation"
		for _, pd := range panels {
			panelGram(e, pd, g)
		}
	}
	return nil
}

// panelGram is the engine-threaded panel kernel Sweep launches.
func panelGram(e *parallel.Engine, pd *mat.Dense, g *mat.Dense) {
	n := pd.Cols
	e.For(pd.Rows, 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			rk := pd.Data[k*pd.Stride : k*pd.Stride+n]
			for i := 0; i < n; i++ {
				for j := i; j < n; j++ {
					g.Data[i*g.Stride+j] += rk[i] * rk[j]
				}
			}
		}
	})
}
