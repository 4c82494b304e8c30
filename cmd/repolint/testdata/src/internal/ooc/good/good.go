// Package good exercises the passing shapes of the checks scoped to
// internal/ooc: a panel-sweep driver that observes engine cancellation
// once per sweep, and a panel kernel that returns its pooled workspace.
package good

import (
	"repro/internal/parallel"
	"repro/mat"
)

// Sweep replays the out-of-core iteration shape: the outer loop launches
// engine-threaded panel kernels and observes e.Err() at every boundary,
// so Shutdown stays bounded mid-factorization.
func Sweep(e *parallel.Engine, panels []*mat.Dense, accs []*mat.Dense, iters int) error {
	for it := 0; it < iters; it++ {
		if err := e.Err(); err != nil {
			return err
		}
		for pi, pd := range panels {
			panelGram(e, pd, accs[pi%len(accs)])
		}
	}
	return nil
}

// panelGram accumulates one panel into its slot's partial: every worker
// writes only the rows of its own range-derived slice, and the partial
// belongs to exactly one slot, so summation order is width-invariant.
func panelGram(e *parallel.Engine, pd *mat.Dense, acc *mat.Dense) {
	n := pd.Cols
	e.For(pd.Rows, 1, func(lo, hi int) {
		local := mat.GetWorkspace(n, n, true)
		for k := lo; k < hi; k++ {
			rk := pd.Data[k*pd.Stride : k*pd.Stride+n]
			for i := 0; i < n; i++ {
				row := local.Data[i*local.Stride : i*local.Stride+n]
				for j := i; j < n; j++ {
					row[j] += rk[i] * rk[j]
				}
			}
		}
		for i := lo; i < hi && i < n; i++ {
			dst := acc.Data[i*acc.Stride : i*acc.Stride+n]
			src := local.Data[i*local.Stride : i*local.Stride+n]
			for j := range dst {
				dst[j] += src[j]
			}
		}
		mat.PutWorkspace(local)
	})
}
