//go:build debugchecks

package cholcp

import (
	"math"
	"testing"

	"repro/internal/parallel"
	"repro/mat"
)

func TestPCholCPNaNInputPanicsUnderDebugChecks(t *testing.T) {
	w := mat.NewDense(4, 4)
	for i := 0; i < 4; i++ {
		w.Set(i, i, 1)
	}
	w.Set(2, 1, math.NaN())
	defer func() {
		if recover() == nil {
			t.Fatal("PCholCP on NaN input: expected debugchecks panic")
		}
	}()
	PCholCP(parallel.Default, w, 0)
}
