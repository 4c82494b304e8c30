// Sanitizer-style runtime assertions, compiled in only with the
// `debugchecks` build tag (see debugchecks_on.go / debugchecks_off.go).
// In normal builds DebugChecks is a false constant, every guard sits
// behind `if DebugChecks` — here and in the kernel packages — and the
// compiler removes the calls entirely: the hot path pays nothing.

package mat

import (
	"fmt"
	"math"
)

// FirstNonFinite scans m in row-major order and returns the indices of
// the first NaN or ±Inf element. found is false when every element is
// finite. The scan is O(Rows·Cols) and allocation-free; the debugchecks
// assertions in the Cholesky pipeline use it to catch non-finite values
// at kernel boundaries instead of letting them surface as a downstream
// breakdown.
func FirstNonFinite(m *Dense) (i, j int, found bool) {
	for i = 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

// CheckFinite panics when m holds a NaN or ±Inf, with a message that
// names the calling package (pkg), the checked value (what) and the
// first bad element. It is the debugchecks sanitizer at kernel
// boundaries: in production builds a non-finite Gram matrix or sketch
// flows on and surfaces as a breakdown or stall (or garbage pivots);
// under the tag the run stops at the first boundary that saw the bad
// value, which pins the origin of the corruption. Callers gate it
// behind DebugChecks.
func CheckFinite(pkg, what string, m *Dense) {
	if i, j, found := FirstNonFinite(m); found {
		panic(fmt.Sprintf("%s: debugchecks: %s contains non-finite value at (%d,%d)", pkg, what, i, j))
	}
}

// debugCheckHeader panics when m's header is internally inconsistent: a
// negative dimension, a stride narrower than the column count, or a
// backing slice too short to hold the last row. Callers gate it behind
// DebugChecks.
func (m *Dense) debugCheckHeader(ctx string) {
	if m.Rows < 0 || m.Cols < 0 {
		panic(fmt.Sprintf("mat: debugchecks: %s on %d×%d matrix (negative dimension)", ctx, m.Rows, m.Cols))
	}
	if m.Rows == 0 || m.Cols == 0 {
		return
	}
	if m.Stride < m.Cols {
		panic(fmt.Sprintf("mat: debugchecks: %s on %d×%d matrix with stride %d < cols", ctx, m.Rows, m.Cols, m.Stride))
	}
	if need := (m.Rows-1)*m.Stride + m.Cols; len(m.Data) < need {
		panic(fmt.Sprintf("mat: debugchecks: %s on %d×%d matrix: backing slice length %d < %d", ctx, m.Rows, m.Cols, len(m.Data), need))
	}
}
