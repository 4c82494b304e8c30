// Package sketch implements the randomized dimension-reduction embedding
// behind the CQRRPT factorization path (internal/core): a sparse-sign
// (CountSketch-style) embedding applied in one streaming pass over the
// input rows.
//
// The kernel shares the determinism contract of the fused BLAS pass
// (blas.PermTrsmGramFused): the random draws for input row i are a pure
// function of (seed, i) — a counter-based SplitMix64 stream, see rng.go —
// and the per-row contributions are summed by blas.ReduceRows, whose slot
// partition is a function of the row count alone. Engines of any width
// therefore produce bit-identical sketches for a fixed seed, which makes
// the whole CQRRPT pipeline reproducible and keeps distributed replicas
// in lockstep.
//
// The kernel takes its input rows 64 at a time in two phases. The draws:
// for d ≤ 128 every row's stream is drawn eight rows a zmm register (the
// draws of a SplitMix64 stream do not depend on one another), and each
// row's targets and signs are picked from them in the same registers.
// The accumulation: the block's rows are bucketed by target as bit
// masks, and blas.SparseSignMulAdd adds each target's rows in ascending
// order with the accumulator row held in registers. Every sketch element
// is still one fma chain over its target's input rows in ascending
// order, and the assembly and Go forms of both phases give the same
// bits, so the sketch bits do not depend on the build or the CPU either.
package sketch

import (
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/mat"
)

// DefaultNNZ is the number of nonzeros per input row (equivalently, per
// column of the embedding matrix S): the sparse-sign density recommended
// by the CQRRPT analysis (a small constant, 4–8, suffices for a d = 2n
// embedding of a tall-skinny column space).
const DefaultNNZ = 8

// ApplySparse computes sa := S·a for the seeded d×m sparse-sign embedding
// S with nnz nonzeros per column: column i of S holds nnz entries of
// ±1/√nnz at rows drawn (without replacement) from the stream for
// (seed, i). d is sa's row count and must satisfy d ≥ nnz. The cost is
// one read of a — 2·m·n·nnz flops — versus the 2·d·m·n of a dense
// Gaussian sketch, which is what makes the CQRRPT pivot pass cheap.
//
// The result is a deterministic function of (seed, a, d, nnz): the slot
// reduction has a fixed shape, so engines of any width produce
// bit-identical sketches. The engine e bounds the parallel width.
func ApplySparse(e *parallel.Engine, sa, a *mat.Dense, nnz int, seed uint64) {
	m, n := a.Rows, a.Cols
	d := sa.Rows
	if sa.Cols != n {
		panic(fmt.Sprintf("sketch: ApplySparse sa %d×%d, want %d columns", sa.Rows, sa.Cols, n))
	}
	if nnz < 1 || nnz > d {
		panic(fmt.Sprintf("sketch: ApplySparse nnz %d outside [1,%d]", nnz, d))
	}
	sp := trace.Region(trace.KernelSketch)
	defer sp.End()
	trace.AddFlops(trace.KernelSketch, 2*int64(m)*int64(n)*int64(nnz))
	trace.AddBytes(trace.KernelSketch, 8*int64(m)*int64(n))
	sa.Zero()
	blas.ReduceRows(e, m, m*n*nnz, sa, false, sparseJob{a: a, nnz: nnz, seed: seed}, sparseSlotRange)
	if mat.DebugChecks {
		mat.CheckFinite("sketch", "sparse-sign sketch output", sa)
	}
}

// sparseJob carries the operands of sparseSlotRange through
// blas.ReduceRows by value, so the sequential path stays allocation-free.
type sparseJob struct {
	a    *mat.Dense
	nnz  int
	seed uint64
}

const (
	// maxNNZ bounds nnz: the kernel holds a block's targets on the stack.
	maxNNZ = 64
	// blockRows bounds a block: one bit per row in the target masks.
	blockRows = 64
	// windowRows bounds the accumulator rows one SparseSignMulAdd call
	// covers for d > 128; a larger d takes the block's targets a window
	// at a time.
	windowRows = 1024
)

// sparseSlotRange accumulates rows [lo, hi) of job.a into acc through the
// sparse-sign embedding: row i of a is added, scaled by ±1/√nnz, into the
// nnz accumulator rows drawn from the (seed, i) stream. Every element of
// acc is one fma chain over its target's rows in ascending order, so the
// summation order inside a slot is fixed by the slot bounds alone.
//
// The (seed, i) stream is consumed as nnz targets (each redrawn until it
// is new to the row) and then one sign draw per target, whose low bit
// becomes the weight's sign bit; scalarTargets is the definition. A
// block of up to 64 rows takes two phases: the draws give each row's
// targets and signs, and the accumulation takes, per target, a bit mask
// of the block's rows that drew it and of those with a negative weight,
// and blas.SparseSignMulAdd adds each target's rows in ascending order,
// one load and one store of each accumulator row per block.
//
//repolint:hotpath
func sparseSlotRange(job sparseJob, lo, hi int, acc *mat.Dense) {
	if job.nnz > maxNNZ {
		panic("sketch: nnz exceeds the sparse kernel's target buffer")
	}
	if vectorPick(acc.Rows, job.nnz) {
		sparseRowsMasked(job, lo, hi, acc)
		return
	}
	sparseRowsWide(job, lo, hi, acc)
}

// sparseRowsMasked is sparseSlotRange where the vector pick runs (see
// vectorPick; d ≤ 128, so a row's targets fit two 64-bit masks): per
// block, pick draws every row's stream and sets its masks of targets
// and of negative weights eight rows a zmm register, one plane of 64
// rows per 64 targets, and a bit-matrix transpose of each plane turns
// them into each target's masks over the block's rows.
//
//repolint:hotpath
func sparseRowsMasked(job sparseJob, lo, hi int, acc *mat.Dense) {
	a, nnz, d := job.a, job.nnz, acc.Rows
	w := 1 / math.Sqrt(float64(nnz))
	planes := (d + 63) / 64
	var scratch [16 * blockRows]int
	var set, neg [2 * blockRows]uint64
	for b0 := lo; b0 < hi; b0 += blockRows {
		nb := min(blockRows, hi-b0)
		failed := pick(job.seed, b0, nb, scratch[:], set[:], neg[:], d, nnz)
		for r := 0; r < nb; r++ {
			if failed>>r&1 != 0 {
				t := scratch[:nnz]
				listMasks(set[:], neg[:], r, t, scalarTargets(job.seed, b0+r, d, t))
			}
		}
		for p := 0; p < planes; p++ {
			s, g := set[p*blockRows:(p+1)*blockRows], neg[p*blockRows:(p+1)*blockRows]
			clear(s[nb:])
			clear(g[nb:])
			transpose64((*[blockRows]uint64)(s))
			transpose64((*[blockRows]uint64)(g))
		}
		blk := mat.Dense{Rows: nb, Cols: a.Cols, Stride: a.Stride, Data: a.Data[b0*a.Stride:]}
		blas.SparseSignMulAdd(acc, set[:d], neg[:d], w, &blk)
	}
}

// sparseRowsWide is sparseSlotRange everywhere else (d > 128, past the
// vector pick's two-word masks, nnz > 32, or no zmm pick on the
// machine): per block, each row's targets and signs come from its
// scalar stream (scalarTargets), and masks buckets them by target,
// window by window.
//
//repolint:hotpath
func sparseRowsWide(job sparseJob, lo, hi int, acc *mat.Dense) {
	a, nnz, d := job.a, job.nnz, acc.Rows
	w := 1 / math.Sqrt(float64(nnz))
	// The block's rows' targets, nnz a row, and sign bits (bit u for
	// target u); one window's target masks.
	var tg [blockRows * maxNNZ]int
	var sg [blockRows]uint64
	var rows, neg [windowRows]uint64
	for b0 := lo; b0 < hi; b0 += blockRows {
		nb := min(blockRows, hi-b0)
		for r := 0; r < nb; r++ {
			sg[r] = scalarTargets(job.seed, b0+r, d, tg[r*nnz:(r+1)*nnz])
		}
		blk := mat.Dense{Rows: nb, Cols: a.Cols, Stride: a.Stride, Data: a.Data[b0*a.Stride:]}
		for t0 := 0; t0 < d; t0 += windowRows {
			tw := min(windowRows, d-t0)
			masks(rows[:tw], neg[:tw], tg[:nb*nnz], sg[:nb], t0)
			win := mat.Dense{Rows: tw, Cols: a.Cols, Stride: acc.Stride, Data: acc.Data[t0*acc.Stride:]}
			blas.SparseSignMulAdd(&win, rows[:tw], neg[:tw], w, &blk)
		}
	}
}

// pickGo sets, for d ≤ 128, the target masks of rows i0 … i0+rows−1,
// rows rounded up to whole groups of eight: bit t mod 64 of
// set[64·(t/64)+r] where row i0+r's nnz targets include t, and of
// neg[64·(t/64)+r] where its weight for t is negative. It draws each
// row's stream one draw at a time (scalarTargets, with scratch for its
// nnz targets), so no row is left over: it returns 0. It is the Go form
// of pickAVX512 and pick2AVX512.
//
//repolint:hotpath
func pickGo(seed uint64, i0, rows int, scratch []int, set, neg []uint64, d, nnz int) uint64 {
	t := scratch[:nnz]
	for r := range (rows + 7) &^ 7 {
		listMasks(set, neg, r, t, scalarTargets(seed, i0+r, d, t))
	}
	return 0
}

// listMasks sets row r's masks in set and neg (see pickGo; d ≤ 128) to
// its targets tg and, where its sign bit (bit u of sg for target u) is
// set, to those targets with a negative weight.
//
//repolint:hotpath
func listMasks(set, neg []uint64, r int, tg []int, sg uint64) {
	var s0, s1, n0, n1 uint64
	for _, t := range tg {
		bit, hi := uint64(1)<<(uint(t)&63), -(uint64(t) >> 6 & 1)
		nb := bit & -(sg & 1)
		s0, s1 = s0|bit&^hi, s1|bit&hi
		n0, n1 = n0|nb&^hi, n1|nb&hi
		sg >>= 1
	}
	set[r], neg[r] = s0, n0
	set[blockRows+r], neg[blockRows+r] = s1, n1
}

// transpose64Go transposes the 64×64 bit matrix m, bit c of m[r] being
// entry (r, c): it swaps the off-diagonal 32×32 blocks, then the
// off-diagonal 16×16 blocks of each diagonal one, and so on down to
// single bits, each stage with its shift and mask as constants. It is
// the Go form of transpose64AVX512.
//
//repolint:hotpath
func transpose64Go(m *[64]uint64) {
	swap := func(a, b *uint64, j uint, mask uint64) {
		t := (*a>>j ^ *b) & mask
		*a ^= t << j
		*b ^= t
	}
	for r := 0; r < 32; r++ {
		swap(&m[r], &m[r+32], 32, 0x00000000ffffffff)
	}
	for r := 0; r < 64; r += 32 {
		for q := r; q < r+16; q++ {
			swap(&m[q], &m[q+16], 16, 0x0000ffff0000ffff)
		}
	}
	for r := 0; r < 64; r += 16 {
		for q := r; q < r+8; q++ {
			swap(&m[q], &m[q+8], 8, 0x00ff00ff00ff00ff)
		}
	}
	for r := 0; r < 64; r += 8 {
		for q := r; q < r+4; q++ {
			swap(&m[q], &m[q+4], 4, 0x0f0f0f0f0f0f0f0f)
		}
	}
	for r := 0; r < 64; r += 4 {
		swap(&m[r], &m[r+2], 2, 0x3333333333333333)
		swap(&m[r+1], &m[r+3], 2, 0x3333333333333333)
	}
	for r := 0; r < 64; r += 2 {
		swap(&m[r], &m[r+1], 1, 0x5555555555555555)
	}
}

// scalarTargets sets a row's targets from its stream, one draw at a
// time, and returns its sign bits: the definition the vector pick
// reproduces.
func scalarTargets(seed uint64, i, d int, tg []int) uint64 {
	src := rowSource(seed, i)
	// taken has bit r mod 64 set once a target r is drawn; only a set
	// bit needs the scan of the targets drawn so far.
	var taken uint64
	for t := range tg {
		for {
			r := src.Intn(d)
			bit := uint64(1) << (uint(r) & 63)
			if taken&bit == 0 || !contains(tg[:t], r) {
				taken |= bit
				tg[t] = r
				break
			}
		}
	}
	var sg uint64
	for u := range tg {
		sg |= (src.Uint64() & 1) << u
	}
	return sg
}

// contains reports whether r is one of the targets.
//
//repolint:hotpath
func contains(targets []int, r int) bool {
	for _, u := range targets {
		if u == r {
			return true
		}
	}
	return false
}

// masks sets rows[u] to the bit mask of the block's rows whose targets
// include t0+u, u < len(rows), and neg[u] to those of them whose weight
// for it is negative: bit r for row r, whose targets are tg[r·nnz:] and
// sign bits sg[r].
//
//repolint:hotpath
func masks(rows, neg []uint64, tg []int, sg []uint64, t0 int) {
	clear(rows)
	clear(neg)
	tw := uint(len(rows))
	nnz := len(tg) / len(sg)
	for r, s := range sg {
		bit := uint64(1) << r
		for _, t := range tg[r*nnz : (r+1)*nnz] {
			if u := uint(t - t0); u < tw {
				rows[u] |= bit
				neg[u] |= bit & -(s & 1)
			}
			s >>= 1
		}
	}
}
