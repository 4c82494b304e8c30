//go:build !amd64 || purego

package sketch

// vectorPick reports false: this build has no zmm pick (see
// sparseRowsWide).
func vectorPick(d, nnz int) bool { return false }

// pick sets the target masks of rows i0 … i0+rows−1 (see pickGo).
//
//repolint:hotpath
func pick(seed uint64, i0, rows int, scratch []int, set, neg []uint64, d, nnz int) uint64 {
	return pickGo(seed, i0, rows, scratch, set, neg, d, nnz)
}

// transpose64 transposes the 64×64 bit matrix m (see transpose64Go).
//
//repolint:hotpath
func transpose64(m *[64]uint64) {
	transpose64Go(m)
}
