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
	if per > 0 {
		b.ReportMetric(flopsPerOp/per.Seconds()/1e9, "GFLOPS")
	}
}

func BenchmarkGram(b *testing.B) {
	for _, sh := range []struct{ m, n int }{{20000, 16}, {20000, 64}, {20000, 256}} {
		a := benchDense(sh.m, sh.n)
		w := mat.NewDense(sh.n, sh.n)
		b.Run(fmt.Sprintf("m=%d/n=%d", sh.m, sh.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Gram(nil, w, a)
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
				TrsmRightUpperNoTrans(nil, work, r)
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
			PermTrsmGramFused(nil, work, perm, r, g)
			b.StopTimer()
		}
		b.StartTimer()
		reportGFLOPS(b, flops)
	})
	b.Run("unfused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			work := a.Clone()
			b.StartTimer()
			mat.PermuteColsInPlace(work, perm)
			TrsmRightUpperNoTrans(nil, work, r)
			Gram(nil, g, work)
			b.StopTimer()
		}
		b.StartTimer()
		reportGFLOPS(b, flops)
	})
}

// BenchmarkKernelVariants measures the AVX2 kernels ("simd") against the
// Go reference loops they reproduce bit for bit ("generic") at the
// ite-tall shape, 4096×64, on a width-1 engine: the tiled SYRK through
// Gram, the left-looking TRSM through TrsmRightUpperNoTrans, and the
// fused pass that runs both. The row scatter runs at the cqrrpt-vtall sketch
// shape: 8192 rows of 32 columns, each added into 8 of 64 accumulator
// rows. "simd" is skipped on builds and CPUs without the assembly.
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
	targets := make([]int, sm*nnz)
	weights := make([]float64, sm*nnz)
	for i := range targets {
		targets[i] = rng.Intn(sd)
		weights[i] = float64(2*rng.Intn(2)-1) / math.Sqrt(nnz)
	}
	scatterFlops := 2 * float64(sm) * float64(sn) * float64(nnz)
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
		{"ScatterRows", scatterFlops, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for row := 0; row < sm; row++ {
					ScatterRows(acc, src.Data[row*sn:(row+1)*sn],
						targets[row*nnz:(row+1)*nnz], weights[row*nnz:(row+1)*nnz])
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
		Gemm(nil, NoTrans, NoTrans, 1, a, bb, 0, c)
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
		Gemv(nil, Trans, 1, a, x, 0, y)
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
		Ger(nil, 1, x, y, a)
	}
	reportGFLOPS(b, 2*float64(m)*float64(n))
}
