package lapack_test

import (
	"math/rand"
	"testing"

	"repro/internal/lapack"
	"repro/mat"
	"repro/testmat"
)

// TestGeqp3MatchesGeqpfRankDeficient compares the blocked Geqp3 against
// the unblocked Geqpf oracle on a numerically rank-deficient matrix of the
// paper's σ-profile. Pivot choices are only well defined within the
// numerical rank: beyond it the downdated norms are roundoff noise and the
// two (like LAPACK's DGEQP3 and DGEQPF) may order the negligible tail
// differently, so pivots and the leading R block are compared within it.
func TestGeqp3MatchesGeqpfRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	const m, n, r = 250, 40, 33
	a := testmat.Generate(rng, m, n, r, 1e-8)
	fb, fu := a.Clone(), a.Clone()
	pb, pu := make(mat.Perm, n), make(mat.Perm, n)
	lapack.Geqp3(nil, fb, make([]float64, n), pb)
	lapack.Geqpf(nil, fu, make([]float64, n), pu)
	for j := 0; j < r; j++ {
		if pb[j] != pu[j] {
			t.Fatalf("Geqp3 vs Geqpf pivots differ at %d (< rank %d): %v vs %v", j, r, pb[:r], pu[:r])
		}
	}
	rb, ru := lapack.ExtractR(fb), lapack.ExtractR(fu)
	if !mat.EqualApprox(rb.Slice(0, r, 0, r), ru.Slice(0, r, 0, r), 1e-9*rb.MaxAbs()) {
		t.Fatal("Geqp3 vs Geqpf leading R blocks differ")
	}
}
