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
// The kernel adds its input rows through one loop, blas.ScatterRows: per
// input row it draws the targets and weights from the row's stream, then
// adds the weighted row into those accumulator rows in one call. On amd64
// that loop runs as AVX2 assembly bit-identical to its Go form, so the
// sketch bits do not depend on the build or the CPU either.
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

// sparseSlotRange accumulates rows [lo, hi) of job.a into acc through the
// sparse-sign embedding: row i of a is scattered, scaled by ±1/√nnz, onto
// the nnz accumulator rows drawn from the (seed, i) stream. Rows are
// consumed in ascending order, so the summation order inside a slot is
// fixed by the slot bounds alone.
//
// The (seed, i) stream is consumed as nnz targets (each redrawn until it
// is new to the row) and then one sign draw per target, whose low bit
// becomes the weight's sign bit. The row then goes to acc in one
// blas.ScatterRows call.
//
//repolint:hotpath
func sparseSlotRange(job sparseJob, lo, hi int, acc *mat.Dense) {
	a, nnz, d := job.a, job.nnz, acc.Rows
	n := a.Cols
	scale := math.Float64bits(1 / math.Sqrt(float64(nnz)))
	// Targets and weights of one input row; nnz is a small constant
	// (DefaultNNZ), so the stack buffers cost nothing.
	var targetBuf [64]int
	var weightBuf [64]float64
	if nnz > len(targetBuf) {
		panic("sketch: nnz exceeds the sparse kernel's target buffer")
	}
	targets, weights := targetBuf[:nnz], weightBuf[:nnz]
	for i := lo; i < hi; i++ {
		src := rowSource(job.seed, i)
		// taken has bit r mod 64 set once a target r is drawn; only a
		// set bit needs the scan of the targets drawn so far.
		var taken uint64
		for t := range targets {
			for {
				r := src.Intn(d)
				bit := uint64(1) << (uint(r) & 63)
				if taken&bit == 0 || !contains(targets[:t], r) {
					taken |= bit
					targets[t] = r
					break
				}
			}
		}
		for t := range weights {
			weights[t] = math.Float64frombits(scale | src.Uint64()<<63)
		}
		blas.ScatterRows(acc, a.Data[i*a.Stride:i*a.Stride+n], targets, weights)
	}
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
