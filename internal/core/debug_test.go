//go:build debugchecks

package core

import (
	"math"
	"testing"

	"repro/internal/parallel"
	"repro/mat"
)

func TestCholQRNaNInputPanicsUnderDebugChecks(t *testing.T) {
	a := mat.NewDense(10, 3)
	for i := 0; i < 10; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, float64(1+i*3+j))
		}
	}
	a.Set(5, 1, math.Inf(1))
	defer func() {
		if recover() == nil {
			t.Fatal("CholQR on Inf input: expected debugchecks panic")
		}
	}()
	CholQR(parallel.Default, a)
}
