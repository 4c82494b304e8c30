//go:build amd64 && !purego

package sketch

import "repro/internal/blas"

// useZMM reports whether pick and transpose64 run their zmm forms: the
// machine runs the zmm kernels and has AVX512DQ's 64-bit lane multiply
// (the draws' VPMULLQ), by internal/blas's one CPU probe.
var useZMM = blas.HasAVX512DQ()

// vectorPick reports whether the sketch into d rows with nnz nonzeros a
// row runs the vector pick (sparseRowsMasked): the zmm forms run, d ≤
// 128 and nnz ≤ 32. Elsewhere scalar draws bucketed by target
// (sparseRowsWide) run: with the pick in Go they read about as fast as
// the row-at-a-time kernel, and the transposes the pick needs would be
// Go loops too.
func vectorPick(d, nnz int) bool { return useZMM && d <= 2*blockRows && nnz <= 32 }

// pickAVX512 and pick2AVX512 are pickGo on a raw scratch pointer for
// groups of eight rows, 1 ≤ groups ≤ 8, 1 ≤ nnz ≤ 32, and d ≤ 64 and
// 64 < d ≤ 128; scratch holds 16·(64−nnz) words. A row whose targets
// take more than 64−nnz draws is reported in failed.
//
//go:noescape
func pickAVX512(seed uint64, i0 int, scratch *int, set, neg *uint64, groups, d, nnz int) (failed uint64)

//go:noescape
func pick2AVX512(seed uint64, i0 int, scratch *int, set, neg *uint64, groups, d, nnz int) (failed uint64)

// pick sets the target masks of rows i0 … i0+rows−1 (see pickGo), on
// zmm registers where they run and the slices hold them, rows rounded
// up to whole groups of eight. Bit r of the result is set where row
// i0+r is left to scalarTargets.
//
//repolint:hotpath
func pick(seed uint64, i0, rows int, scratch []int, set, neg []uint64, d, nnz int) uint64 {
	groups := (rows + 7) / 8
	if words := (d + 63) / 64; useZMM && d >= 1 && words <= 2 && groups >= 1 && groups <= 8 &&
		len(set) >= 64*words && len(neg) >= 64*words && nnz >= 1 && nnz <= 32 && len(scratch) >= 16*(64-nnz) {
		if words == 1 {
			return pickAVX512(seed, i0, &scratch[0], &set[0], &neg[0], groups, d, nnz)
		}
		return pick2AVX512(seed, i0, &scratch[0], &set[0], &neg[0], groups, d, nnz)
	}
	return pickGo(seed, i0, rows, scratch, set, neg, d, nnz)
}

// transpose64AVX512 is transpose64Go on zmm registers.
//
//go:noescape
func transpose64AVX512(m *[64]uint64)

// transpose64 transposes the 64×64 bit matrix m (see transpose64Go).
//
//repolint:hotpath
func transpose64(m *[64]uint64) {
	if useZMM {
		transpose64AVX512(m)
		return
	}
	transpose64Go(m)
}
