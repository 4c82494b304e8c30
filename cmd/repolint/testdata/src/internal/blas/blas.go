// Package blas seeds an enginethread violation: it sits at the guarded
// import path repro/internal/blas and exports a kernel that fans out
// without accepting an engine.
package blas

import "repro/internal/parallel"

var pkgEngine = parallel.NewEngine(2)

// Scale multiplies x by alpha in parallel through a package-global
// engine, hiding the width from the caller.
func Scale(x []float64, alpha float64) { // want "exported kernel Scale uses the parallel engine .* but does not accept"
	pkgEngine.For(len(x), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] *= alpha
		}
	})
}

// Axpy threads the engine explicitly, so it is not flagged even though
// it fans out.
func Axpy(e *parallel.Engine, alpha float64, x, y []float64) {
	e.For(len(x), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] += alpha * x[i]
		}
	})
}
