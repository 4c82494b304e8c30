package blas

// Kernel benchmarks: the throughput asymmetry between these Level-3 and
// Level-2 kernels is the mechanism behind every performance figure in the
// paper. GFLOPS are reported as custom metrics.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/parallel"
	"repro/mat"
)

func benchDense(m, n int) *mat.Dense {
	rng := rand.New(rand.NewSource(1))
	a := mat.NewDense(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	return a
}

func reportGFLOPS(b *testing.B, flopsPerOp float64) {
	b.Helper()
	n := b.N
	if n < 1 {
		n = 1
	}
	per := b.Elapsed() / time.Duration(n)
	if per > 0 && flopsPerOp > 0 {
		b.ReportMetric(flopsPerOp/per.Seconds()/1e9, "GFLOPS")
	}
}

func BenchmarkGram(b *testing.B) {
	for _, sh := range []struct{ m, n int }{{20000, 16}, {20000, 64}, {20000, 256}} {
		a := benchDense(sh.m, sh.n)
		w := mat.NewDense(sh.n, sh.n)
		b.Run(fmt.Sprintf("m=%d/n=%d", sh.m, sh.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Gram(parallel.Default, w, a)
			}
			reportGFLOPS(b, 2*float64(sh.m)*float64(sh.n)*float64(sh.n))
		})
	}
}

func BenchmarkTrsmRight(b *testing.B) {
	for _, sh := range []struct{ m, n int }{{20000, 64}, {20000, 256}} {
		a := benchDense(sh.m, sh.n)
		rng := rand.New(rand.NewSource(2))
		r := upperTriangular(rng, sh.n)
		b.Run(fmt.Sprintf("m=%d/n=%d", sh.m, sh.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				work := a.Clone()
				b.StartTimer()
				TrsmRightUpperNoTrans(parallel.Default, work, r)
				b.StopTimer()
			}
			b.StartTimer()
		})
	}
}

// BenchmarkPermTrsmGramFused measures the fused streaming pass against
// the separate permute + TRSM + SYRK sequence it replaces (same flop
// count, so the GFLOPS ratio is the wall-clock speedup). cmd/bench-kernels
// runs the acceptance-sized m=1_000_000 comparison; this benchmark is the
// quick-iteration version.
func BenchmarkPermTrsmGramFused(b *testing.B) {
	const m, n = 200000, 64
	a := benchDense(m, n)
	rng := rand.New(rand.NewSource(2))
	r := upperTriangular(rng, n)
	perm := mat.IdentityPerm(n)
	for i := range perm {
		j := i + rng.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	g := mat.NewDense(n, n)
	flops := float64(m)*float64(n)*float64(n) + float64(m)*float64(n)*float64(n+1)
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			work := a.Clone()
			b.StartTimer()
			PermTrsmGramFused(parallel.Default, work, perm, r, g)
			b.StopTimer()
		}
		b.StartTimer()
		reportGFLOPS(b, flops)
	})
	b.Run("unfused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			work := a.Clone()
			b.StartTimer()
			mat.PermuteColsInPlaceEngine(parallel.Default, work, perm)
			TrsmRightUpperNoTrans(parallel.Default, work, r)
			Gram(parallel.Default, g, work)
			b.StopTimer()
		}
		b.StartTimer()
		reportGFLOPS(b, flops)
	})
}

// BenchmarkKernelVariants measures the assembly kernels ("simd": zmm
// where they run; "avx2": the ymm ones on such a CPU) against the Go
// reference loops they reproduce bit for bit ("generic") at the
// ite-tall shape, 4096×64, on a width-1 engine: the tiled SYRK through
// Gram, the left-looking TRSM through TrsmRightUpperNoTrans, the fused
// pass that runs both, and the fused pass's column gather with p0 = 16
// leading columns fixed, in place and out of place, 64 rows a call as
// the pass takes it (its MB/s counts each row read and written once).
// The sign-matrix product runs at the cqrrpt-vtall sketch shape: 8192
// rows of 32 columns, each added into 8 of 64 accumulator rows, one call
// per block of 64 rows, as the sketch takes them. "simd" is skipped on builds and CPUs without the
// assembly.
func BenchmarkKernelVariants(b *testing.B) {
	const m, n = 4096, 64
	e := parallel.NewEngine(1)
	a := benchDense(m, n)
	rng := rand.New(rand.NewSource(2))
	r := upperTriangular(rng, n)
	perm := mat.Perm(rng.Perm(n))
	work := mat.NewDense(m, n)
	g := mat.NewDense(n, n)
	syrkFlops := float64(m) * float64(n) * float64(n+1)
	trsmFlops := float64(m) * float64(n) * float64(n)
	const sm, sn, sd, nnz = 8192, 32, 64, 8
	src := benchDense(sm, sn)
	acc := mat.NewDense(sd, sn)
	// Per block of 64 rows, rows[t] has bit i set where row i drew t
	// (neg too where its weight is negative).
	type signBlock struct{ rows, neg [sd]uint64 }
	var blocks []signBlock
	for lo := 0; lo < sm; lo += 64 {
		var blk signBlock
		for i := 0; i < 64; i++ {
			for _, t := range rng.Perm(sd)[:nnz] {
				blk.rows[t] |= 1 << i
				blk.neg[t] |= uint64(rng.Intn(2)) << i
			}
		}
		blocks = append(blocks, blk)
	}
	views := make([]*mat.Dense, len(blocks))
	for q := range views {
		views[q] = src.Slice(64*q, 64*q+64, 0, sn)
	}
	signFlops := 2 * float64(sm) * float64(sn) * float64(nnz)
	const p0 = 16
	gperm := mat.IdentityPerm(n)
	gtail := gperm[p0:]
	rng.Shuffle(len(gtail), func(i, j int) { gtail[i], gtail[j] = gtail[j], gtail[i] })
	if gtail[0] == p0 {
		gtail[0], gtail[1] = gtail[1], gtail[0]
	}
	tmp := make([]float64, n)
	gather := func(dst, src *mat.Dense) func(b *testing.B) {
		return func(b *testing.B) {
			b.SetBytes(2 * 8 * m * n)
			for i := 0; i < b.N; i++ {
				for q := 0; q < m; q += fusedBlockRows {
					gatherRows(dst, src, gperm, q, min(q+fusedBlockRows, m), tmp)
				}
			}
		}
	}
	kernels := []struct {
		name  string
		flops float64
		run   func(b *testing.B)
	}{
		{"SyrkQuad", syrkFlops, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Gram(e, g, a)
			}
		}},
		{"TrsmPanel", trsmFlops, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				work.Copy(a)
				b.StartTimer()
				TrsmRightUpperNoTrans(e, work, r)
			}
		}},
		{"PermTrsmGramFused", syrkFlops + trsmFlops, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				work.Copy(a)
				b.StartTimer()
				PermTrsmGramFused(e, work, perm, r, g)
			}
		}},
		{"GatherInPlace", 0, gather(work, work)},
		{"GatherOutOfPlace", 0, gather(work, a)},
		{"SparseSignMulAdd", signFlops, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for q := range blocks {
					SparseSignMulAdd(acc, blocks[q].rows[:], blocks[q].neg[:], 1/math.Sqrt(nnz), views[q])
				}
			}
		}},
	}
	for _, k := range kernels {
		b.Run(k.name+"/simd", func(b *testing.B) {
			if !useAVX2 {
				b.Skip("no AVX2 kernels in this build or on this CPU")
			}
			k.run(b)
			reportGFLOPS(b, k.flops)
		})
		b.Run(k.name+"/avx2", func(b *testing.B) {
			if !useAVX512 {
				b.Skip("no AVX-512 kernels in this build or on this CPU: simd is avx2")
			}
			withAVX2Kernels(func() { k.run(b) })
			reportGFLOPS(b, k.flops)
		})
		b.Run(k.name+"/generic", func(b *testing.B) {
			withGoKernels(func() { k.run(b) })
			reportGFLOPS(b, k.flops)
		})
	}
}

func BenchmarkGemmNN(b *testing.B) {
	const m, k, n = 4000, 256, 256
	a := benchDense(m, k)
	bb := benchDense(k, n)
	c := mat.NewDense(m, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(parallel.Default, NoTrans, NoTrans, 1, a, bb, 0, c)
	}
	reportGFLOPS(b, 2*float64(m)*float64(k)*float64(n))
}

func BenchmarkGemvTrans(b *testing.B) {
	const m, n = 20000, 256
	a := benchDense(m, n)
	x := make([]float64, m)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemv(parallel.Default, Trans, 1, a, x, 0, y)
	}
	reportGFLOPS(b, 2*float64(m)*float64(n))
}

func BenchmarkGer(b *testing.B) {
	const m, n = 20000, 256
	a := benchDense(m, n)
	x := make([]float64, m)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1e-9
	}
	for j := range y {
		y[j] = 1e-9
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Ger(parallel.Default, 1, x, y, a)
	}
	reportGFLOPS(b, 2*float64(m)*float64(n))
}
