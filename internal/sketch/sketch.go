// Package sketch implements the randomized dimension-reduction embeddings
// behind the CQRRPT factorization path (internal/core): a sparse-sign
// (CountSketch-style) embedding applied in one streaming pass over the
// input rows, and a dense Gaussian embedding kept as the
// statistically-safest fallback.
//
// Both kernels share the determinism contract of the fused BLAS pass
// (blas.PermTrsmGramFused): the random draws for input row i are a pure
// function of (seed, i) — a counter-based SplitMix64 stream, see rng.go —
// and the per-row contributions are accumulated through a fixed-shape
// slot reduction whose fan-out depends on the row count alone. Engines of
// any width therefore produce bit-identical sketches for a fixed seed,
// which makes the whole CQRRPT pipeline reproducible and keeps
// distributed replicas in lockstep.
//
// Both kernels add their input rows through one loop, blas.ScatterRows:
// per input row they draw the targets and weights from the row's stream,
// then add the weighted row into those accumulator rows in one call. On amd64
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

const (
	// DefaultNNZ is the number of nonzeros per input row (equivalently,
	// per column of the embedding matrix S): the sparse-sign density
	// recommended by the CQRRPT analysis (a small constant, 4–8, suffices
	// for a d = 2n embedding of a tall-skinny column space).
	DefaultNNZ = 8
	// sketchMaxSlots is the fixed fan-out of the deterministic reduction,
	// matching the fused pass: the row range is partitioned into at most
	// this many slots as a function of m only, and per-slot partial
	// sketches are reduced in ascending slot order.
	sketchMaxSlots = 16
	// sketchMinSlotRows keeps slots tall enough that zeroing and reducing
	// the per-slot d×n accumulators stays negligible against the row
	// streaming.
	sketchMinSlotRows = 2048
)

// slots returns the reduction fan-out for an m-row sketch: a function of
// m alone, so the summation shape is identical for every engine width.
func slots(m int) int {
	s := m / sketchMinSlotRows
	if s < 1 {
		return 1
	}
	if s > sketchMaxSlots {
		return sketchMaxSlots
	}
	return s
}

// ApplySparse computes sa := S·a for the seeded d×m sparse-sign embedding
// S with nnz nonzeros per column: column i of S holds nnz entries of
// ±1/√nnz at rows drawn (without replacement) from the stream for
// (seed, i). d is sa's row count and must satisfy d ≥ nnz. The cost is
// one read of a — 2·m·n·nnz flops — versus the 2·d·m·n of a dense
// Gaussian sketch, which is what makes the CQRRPT pivot pass cheap.
//
// The result is a deterministic function of (seed, a, d, nnz): the slot
// reduction has a fixed shape, so engines of any width produce
// bit-identical sketches. The engine e bounds the parallel width (nil
// selects the default engine).
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
	apply(e, sa, a, kernelArgs{gaussian: false, nnz: nnz, seed: seed})
	if debugChecksEnabled {
		debugCheckFinite("sparse-sign sketch output", sa)
	}
}

// ApplyGaussian computes sa := G·a for the seeded d×m Gaussian embedding
// G with entries N(0, 1/d). It is the dense fallback for ApplySparse —
// the oblivious embedding with the sharpest known distortion bounds, at
// 2·d·m·n flops (d/nnz times the sparse cost). Determinism contract and
// shapes are as for ApplySparse.
func ApplyGaussian(e *parallel.Engine, sa, a *mat.Dense, seed uint64) {
	m, n := a.Rows, a.Cols
	d := sa.Rows
	if sa.Cols != n {
		panic(fmt.Sprintf("sketch: ApplyGaussian sa %d×%d, want %d columns", sa.Rows, sa.Cols, n))
	}
	sp := trace.Region(trace.KernelSketch)
	defer sp.End()
	trace.AddFlops(trace.KernelSketch, 2*int64(d)*int64(m)*int64(n))
	trace.AddBytes(trace.KernelSketch, 8*int64(m)*int64(n))
	apply(e, sa, a, kernelArgs{gaussian: true, seed: seed})
	if debugChecksEnabled {
		debugCheckFinite("Gaussian sketch output", sa)
	}
}

// kernelArgs selects and parameterizes the per-slot kernel without a
// closure, keeping the sequential path allocation-free.
type kernelArgs struct {
	gaussian bool
	nnz      int
	seed     uint64
}

// run dispatches one slot's row range to the selected kernel.
func (ka kernelArgs) run(a *mat.Dense, lo, hi int, acc *mat.Dense) {
	if ka.gaussian {
		gaussianSlotRange(a, lo, hi, acc.Rows, ka.seed, acc)
	} else {
		sparseSlotRange(a, lo, hi, acc.Rows, ka.nnz, ka.seed, acc)
	}
}

// apply runs the shared slot-reduction skeleton: partition the rows of a
// into slots(m) ranges, accumulate each range's sketch contribution into
// a pooled d×n accumulator with the selected kernel, and reduce the
// accumulators into sa in ascending slot order. The reduction shape is a
// function of m alone, never of the engine width.
func apply(e *parallel.Engine, sa, a *mat.Dense, ka kernelArgs) {
	m := a.Rows
	d, n := sa.Rows, sa.Cols
	sa.Zero()
	if m == 0 || n == 0 {
		return
	}
	ns := slots(m)
	w := e.Workers()
	if w == 1 || ns == 1 {
		// Sequential path: one reusable accumulator, reduced slot by slot
		// in ascending order — the exact summation shape of the parallel
		// path, and allocation-free once the workspace pool is warm.
		acc := mat.GetWorkspace(d, n, false)
		for si := 0; si < ns; si++ {
			lo, hi := slotBounds(m, ns, si)
			acc.Zero()
			ka.run(a, lo, hi, acc)
			addInto(sa, acc)
		}
		mat.PutWorkspace(acc)
		return
	}
	// Parallel path: workers claim contiguous slot subranges; every slot
	// gets its own pooled accumulator, and the reduction into sa walks
	// the slots in ascending index order regardless of which worker
	// filled them.
	accs := make([]*mat.Dense, ns)
	taskRanges := parallel.Split(ns, w, 1)
	tasks := make([]func(), len(taskRanges))
	for ti, tr := range taskRanges {
		tasks[ti] = func() {
			for si := tr.Lo; si < tr.Hi; si++ {
				acc := mat.GetWorkspace(d, n, true)
				lo, hi := slotBounds(m, ns, si)
				ka.run(a, lo, hi, acc)
				accs[si] = acc
			}
		}
	}
	e.Do(tasks...)
	for _, acc := range accs {
		addInto(sa, acc)
		mat.PutWorkspace(acc)
	}
}

// slotBounds returns the half-open row range of slot si out of ns,
// the same arithmetic split the fused BLAS pass uses.
func slotBounds(m, ns, si int) (lo, hi int) {
	chunk, rem := m/ns, m%ns
	lo = si*chunk + min(si, rem)
	hi = lo + chunk
	if si < rem {
		hi++
	}
	return lo, hi
}

// sparseSlotRange accumulates rows [lo, hi) of a into acc through the
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
func sparseSlotRange(a *mat.Dense, lo, hi, d, nnz int, seed uint64, acc *mat.Dense) {
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
		src := rowSource(seed, i)
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

// gaussianChunk is the number of Gaussian weights drawn before one
// scatter. It is even, so a Box–Muller pair never straddles two chunks.
const gaussianChunk = 64

// gaussianSlotRange accumulates rows [lo, hi) of a into acc through the
// dense Gaussian embedding: row i contributes the rank-1 update
// g_i·a(i,:) with g_i the length-d N(0, 1/d) vector of the (seed, i)
// stream. Gaussians are drawn by Box–Muller in pairs, in ascending target
// order, so the draws and the summation order are fixed by the slot
// bounds alone. The weights of up to gaussianChunk consecutive targets
// are drawn first and then scattered in one blas.ScatterRows call; every
// accumulator element still takes one update per input row.
//
//repolint:hotpath
func gaussianSlotRange(a *mat.Dense, lo, hi, d int, seed uint64, acc *mat.Dense) {
	n := a.Cols
	scale := 1 / math.Sqrt(float64(d))
	var targets [gaussianChunk]int
	var weights [gaussianChunk]float64
	for i := lo; i < hi; i++ {
		src := rowSource(seed, i)
		row := a.Data[i*a.Stride : i*a.Stride+n]
		for r0 := 0; r0 < d; r0 += gaussianChunk {
			c := min(gaussianChunk, d-r0)
			for r := 0; r < c; r += 2 {
				// Box–Muller: two independent normals from two uniforms.
				u1 := float64(src.Uint64()>>11+1) * (1.0 / (1 << 53)) // (0,1]
				u2 := src.Float64()
				rad := math.Sqrt(-2 * math.Log(u1))
				sin, cos := math.Sincos(2 * math.Pi * u2)
				targets[r], weights[r] = r0+r, scale*rad*cos
				if r+1 < c {
					targets[r+1], weights[r+1] = r0+r+1, scale*rad*sin
				}
			}
			blas.ScatterRows(acc, row, targets[:c], weights[:c])
		}
	}
}

// addInto accumulates src into dst elementwise.
func addInto(dst, src *mat.Dense) {
	for i := 0; i < dst.Rows; i++ {
		drow := dst.Data[i*dst.Stride : i*dst.Stride+dst.Cols]
		srow := src.Data[i*src.Stride : i*src.Stride+src.Cols]
		for j, v := range srow {
			drow[j] += v
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
