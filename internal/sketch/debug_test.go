//go:build debugchecks

package sketch

import (
	"math"
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/mat"
)

// Under -tags debugchecks the sketch kernel must stop at the first
// non-finite output instead of letting the poisoned sketch flow into
// Geqp3.
func TestApplySparseDebugChecksPanicOnNaN(t *testing.T) {
	a := mat.NewDense(100, 4)
	for i := range a.Data {
		a.Data[i] = 1
	}
	a.Set(57, 2, math.NaN())
	sa := mat.NewDense(8, 4)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic on NaN input under debugchecks")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "sketch output contains non-finite") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	ApplySparse(parallel.Default, sa, a, 4, 1)
}
