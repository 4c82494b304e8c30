// Package bad seeds workspacebalance violations.
package bad

import "repro/mat"

func discardedResult(r, c int) {
	mat.GetWorkspace(r, c, false) // want "result of mat.GetWorkspace is discarded"
}

func blankAssigned(n int) {
	_ = mat.GetWorkspace(1, n, true) // want "result of mat.GetWorkspace is discarded"
}

func neverReleased(n int) float64 {
	buf := mat.GetWorkspace(1, n, true) // want "pooled workspace \"buf\" acquired by mat.GetWorkspace is never released"
	s := 0.0
	for _, v := range buf.Data {
		s += v
	}
	return s
}

func leakOnEarlyReturn(n int) int {
	buf := mat.GetWorkspace(1, n, false)
	if n > 10 {
		return 0 // want "return leaks pooled workspace \"buf\""
	}
	mat.PutWorkspace(buf)
	return 1
}
