package sketch

import "math/bits"

// The sketch kernels need randomness with two properties the rest of the
// repo does not: the stream for one input row must be derivable from
// (seed, row) alone — so any partition of the rows across workers draws
// identical values — and drawing must be allocation- and lock-free inside
// a //repolint:hotpath kernel. A shared *rand.Rand satisfies neither (it
// serializes workers and its sequence depends on interleaving), so the
// package uses a counter-based generator instead: SplitMix64 applied to a
// per-row counter. This is the norand-approved seeded-source pattern —
// the caller supplies the seed explicitly and the stream is a pure
// function of it (see cmd/repolint/testdata/src/norand/good).

// splitmix64 is the SplitMix64 finalizer (Steele, Lea & Flood): a
// bijective mixer whose output passes BigCrush when driven by a counter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Source is a deterministic random stream: a SplitMix64 generator whose
// state is seeded explicitly by the caller. The zero value is a valid
// stream for seed 0. Source is a value type — copy it to fork the stream —
// and drawing never allocates.
type Source struct {
	state uint64
}

// NewSource returns the stream for the given seed.
func NewSource(seed uint64) Source { return Source{state: splitmix64(seed)} }

// rowSource derives the stream for input row i of the sketch with the
// given seed: a domain-separated reseed, so streams for different rows
// (and different seeds) are statistically independent.
func rowSource(seed uint64, i int) Source {
	return Source{state: splitmix64(seed ^ splitmix64(uint64(i)+0x6a09e667f3bcc909))}
}

// Uint64 draws the next 64 uniform bits. Draw j (from 1) of a stream
// whose state starts at s mixes s + j·0x9e3779b97f4a7c15: no draw
// depends on another, which is what lets the sketch's pick compute them
// eight rows a zmm register.
//
//repolint:hotpath
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	x := s.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Intn draws a uniform integer in [0, n) by the multiply-shift reduction
// (Lemire): bias is at most n/2⁶⁴, immaterial for the sketch row targets.
//
//repolint:hotpath
func (s *Source) Intn(n int) int {
	hi, _ := bits.Mul64(s.Uint64(), uint64(n))
	return int(hi)
}
