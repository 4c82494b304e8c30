// Package mat stubs the workspace-pool API of the real repro/mat package
// so the fixture packages type-check against the same import path and
// function names the workspacebalance check matches on.
package mat

// Dense is a minimal row-major matrix.
type Dense struct {
	Rows, Cols, Stride int
	Data               []float64
}

// GetWorkspace mimics the pooled r×c workspace acquire.
func GetWorkspace(r, c int, clear bool) *Dense {
	_ = clear
	return &Dense{Rows: r, Cols: c, Stride: c, Data: make([]float64, r*c)}
}

// PutWorkspace mimics the pooled workspace release.
func PutWorkspace(d *Dense) { _ = d }
