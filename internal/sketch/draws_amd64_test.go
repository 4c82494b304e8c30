//go:build amd64 && !purego

package sketch

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/mat"
)

// The differential tests of the sketch's assembly: the vector picks and
// the zmm transpose must reproduce their Go forms bit for bit, and
// ApplySparse must give the same sketch with both switched off.

func requireZMM(t *testing.T) {
	t.Helper()
	if !useZMM {
		t.Skip("CPU without AVX-512 DQ (or OS without ZMM state): the Go forms run on this machine")
	}
}

// withGoForms runs f with the sketch's assembly switched off.
func withGoForms(f func()) {
	saved := useZMM
	useZMM = false
	defer func() { useZMM = saved }()
	f()
}

// TestPickAVX512MatchesGo compares the masks of every row the vector
// picks (one word and two) do not leave over with the Go form's, and
// checks that they leave none over where 64−nnz draws are plenty.
func TestPickAVX512MatchesGo(t *testing.T) {
	requireZMM(t)
	rng := rand.New(rand.NewSource(92))
	for _, tc := range []struct{ d, nnz int }{
		{1, 1}, {2, 2}, {7, 3}, {16, 8}, {26, 8}, {33, 5}, {63, 1}, {64, 8}, {40, 32}, {32, 32},
		{65, 8}, {66, 1}, {100, 3}, {127, 8}, {128, 8}, {128, 32},
	} {
		for _, rows := range []int{1, 8, 37, 64} {
			seed, i0 := rng.Uint64(), rng.Intn(1<<30)
			scratch := make([]int, 16*(64-tc.nnz))
			set, neg := make([]uint64, 128), make([]uint64, 128)
			failed := pick(seed, i0, rows, scratch, set, neg, tc.d, tc.nnz)
			wantSet, wantNeg := make([]uint64, 128), make([]uint64, 128)
			pickGo(seed, i0, rows, scratch, wantSet, wantNeg, tc.d, tc.nnz)
			label := fmt.Sprintf("d=%d nnz=%d rows=%d", tc.d, tc.nnz, rows)
			if tc.nnz <= 8 && tc.nnz < tc.d && failed != 0 {
				t.Fatalf("%s: rows %#x left over", label, failed)
			}
			for r := range (rows + 7) &^ 7 {
				for p := r; p < (tc.d+63)/64*64; p += 64 {
					if failed>>r&1 == 0 && (set[p] != wantSet[p] || neg[p] != wantNeg[p]) {
						t.Fatalf("%s: row %d plane %d masks %#x/%#x, Go %#x/%#x",
							label, r, p/64, set[p], neg[p], wantSet[p], wantNeg[p])
					}
				}
			}
		}
	}
}

func TestTranspose64AVX512MatchesGo(t *testing.T) {
	requireZMM(t)
	rng := rand.New(rand.NewSource(93))
	for range 20 {
		var got, want [64]uint64
		for i := range got {
			got[i] = rng.Uint64() & rng.Uint64()
		}
		want = got
		transpose64(&got)
		transpose64Go(&want)
		if got != want {
			t.Fatal("zmm transpose differs from the Go form")
		}
	}
}

// TestApplySparseGoFormsMatchReference runs the sketch on the Go forms
// of the pick and the transpose against the replayed reference.
func TestApplySparseGoFormsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for _, sh := range []struct{ m, n, d, nnz int }{{300, 32, 64, 8}, {5000, 13, 26, 8}, {700, 9, 129, 4}} {
		a := randDense(rng, sh.m, sh.n)
		ref := mat.NewDense(sh.d, sh.n)
		refSparse(ref, a, sh.nnz, 5)
		sa := mat.NewDense(sh.d, sh.n)
		withGoForms(func() { ApplySparse(parallel.NewEngine(1), sa, a, sh.nnz, 5) })
		requireSameSketch(t, fmt.Sprintf("Go forms m=%d n=%d d=%d", sh.m, sh.n, sh.d), sa, ref)
	}
}
