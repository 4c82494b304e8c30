// Package good holds workspacebalance patterns that must not be flagged.
package good

import "repro/mat"

func deferredRelease(n int) float64 {
	buf := mat.GetWorkspace(1, n, true)
	defer mat.PutWorkspace(buf)
	s := 0.0
	for _, v := range buf.Data {
		s += v
	}
	return s
}

func straightLineRelease(r, c int) {
	w := mat.GetWorkspace(r, c, true)
	w.Data[0] = 1
	mat.PutWorkspace(w)
}

func releaseBeforeEveryReturn(n int) int {
	buf := mat.GetWorkspace(1, n, false)
	if n > 10 {
		mat.PutWorkspace(buf)
		return 0
	}
	mat.PutWorkspace(buf)
	return 1
}

// ownershipTransferred returns the buffer: the caller now owns the
// release, so the acquiring function is not flagged.
func ownershipTransferred(n int) *mat.Dense {
	buf := mat.GetWorkspace(1, n, true)
	return buf
}
