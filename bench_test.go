package tsqrcp

// One testing.B benchmark per table/figure of the paper's evaluation.
// Sizes are scaled to laptop budgets; cmd/report -paper runs the paper's
// sizes. The mapping to the paper's experiments is in DESIGN.md §8;
// measured-vs-paper values are recorded in EXPERIMENTS.md. To profile a
// figure's sweep, run its benchmark with -cpuprofile, e.g.
// go test -run '^$' -bench BenchmarkFig4 -cpuprofile cpu.out .

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/bench"
	"repro/dist"
	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/mat"
	"repro/testmat"
)

// benchMatrix caches one test matrix per shape across benchmark runs.
var benchCache = map[string]*mat.Dense{}

func benchMatrix(m, n, r int, sigma float64) *mat.Dense {
	key := fmt.Sprintf("%d/%d/%d/%g", m, n, r, sigma)
	if a, ok := benchCache[key]; ok {
		return a
	}
	rng := rand.New(rand.NewSource(12345))
	a := testmat.Generate(rng, m, n, r, sigma)
	benchCache[key] = a
	return a
}

// BenchmarkFig1a — preliminary experiment: raw Chol-CP pivot selection vs
// HQR-CP on one ill-conditioned matrix (paper Fig. 1(a)).
func BenchmarkFig1a(b *testing.B) {
	a := benchMatrix(4000, 50, 40, 1e-12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs := bench.CholCPPivotExperiment(a)
		if len(recs) != 50 {
			b.Fatal("wrong record count")
		}
	}
}

// BenchmarkFig1c — Monte-Carlo pivot-reliability study (paper Fig. 1(c),
// 1000 matrices; reduced here).
func BenchmarkFig1c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st := bench.Fig1c(int64(i), 10, 1000, 20)
		if st.Matrices != 10 {
			b.Fatal("wrong matrix count")
		}
	}
}

// BenchmarkFig2Accuracy — the four-metric accuracy comparison across σ
// (paper Fig. 2).
func BenchmarkFig2Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig2(1, 2000, 30, 24, []float64{1e-2, 1e-8, 1e-14})
		if len(rows) != 9 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFig3Pivots — per-iteration pivot correctness for ε=1e-5 vs ε=0
// (paper Fig. 3).
func BenchmarkFig3Pivots(b *testing.B) {
	sigmas := []float64{1e-4, 1e-12}
	for i := 0; i < b.N; i++ {
		good := bench.Fig3(1, 2000, 30, 24, sigmas, 1e-5)
		if !bench.AllPivotsCorrect(good) {
			b.Fatal("ε=1e-5 pivots must be correct")
		}
		bench.Fig3(1, 2000, 30, 24, sigmas, 0)
	}
}

// BenchmarkFig4SingleNode — the single-node timing comparison
// (paper Fig. 4): sub-benchmarks per (method, m, n); compare
// IteCholQRCP vs HQRCP times to obtain the speedup ratio.
func BenchmarkFig4SingleNode(b *testing.B) {
	shapes := []struct{ m, n, r int }{
		{10000, 16, 13}, {10000, 64, 51}, {20000, 32, 26},
	}
	for _, sh := range shapes {
		a := benchMatrix(sh.m, sh.n, sh.r, 1e-12)
		b.Run(fmt.Sprintf("IteCholQRCP/m=%d/n=%d", sh.m, sh.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.IteCholQRCP(parallel.Default, a, core.DefaultPivotTol, a.Cols); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(bench.Flops(sh.m, sh.n, b.Elapsed()/time.Duration(safeN(b.N)))/1e9, "effGFLOPS")
		})
		b.Run(fmt.Sprintf("HQRCP/m=%d/n=%d", sh.m, sh.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.HQRCP(parallel.Default, a)
			}
			b.ReportMetric(bench.Flops(sh.m, sh.n, b.Elapsed()/time.Duration(safeN(b.N)))/1e9, "effGFLOPS")
		})
	}
}

// BenchmarkIteCholQRCP — the end-to-end factorization at the paper's
// tall-skinny shapes, with allocation counts: after the first warm-up run
// the pooled workspaces make the iteration loop allocation-light, so
// allocs/op here guards the perf work in internal/parallel and mat.
func BenchmarkIteCholQRCP(b *testing.B) {
	shapes := []struct{ m, n int }{{10000, 64}, {10000, 128}, {10000, 256}}
	for _, sh := range shapes {
		a := benchMatrix(sh.m, sh.n, (sh.n*4)/5, 1e-12)
		b.Run(fmt.Sprintf("m=%d/n=%d", sh.m, sh.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.IteCholQRCP(parallel.Default, a, core.DefaultPivotTol, a.Cols); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(bench.Flops(sh.m, sh.n, b.Elapsed()/time.Duration(safeN(b.N)))/1e9, "effGFLOPS")
		})
	}
}

func safeN(n int) int64 {
	if n < 1 {
		return 1
	}
	return int64(n)
}

// BenchmarkFig5Flops — the effective-FLOPS yardstick of Eq. (19)
// (paper Fig. 5) on the kernels that dominate each method: the Level-3
// Gram/TRSM pair (Ite-CholQR-CP) vs Level-2 GEMV/GER streams (HQR-CP).
func BenchmarkFig5Flops(b *testing.B) {
	const m, n = 20000, 64
	a := benchMatrix(m, n, 51, 1e-12)
	w := mat.NewDense(n, n)
	b.Run("Level3Gram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blas.Gram(parallel.Default, w, a)
		}
		flops := 2 * float64(m) * float64(n) * float64(n)
		b.ReportMetric(flops/(b.Elapsed().Seconds()/float64(safeN(b.N)))/1e9, "GFLOPS")
	})
	b.Run("Level2Gemv", func(b *testing.B) {
		x := make([]float64, m)
		y := make([]float64, n)
		for i := range x {
			x[i] = 1
		}
		for i := 0; i < b.N; i++ {
			blas.Gemv(parallel.Default, blas.Trans, 1, a, x, 0, y)
		}
		flops := 2 * float64(m) * float64(n)
		b.ReportMetric(flops/(b.Elapsed().Seconds()/float64(safeN(b.N)))/1e9, "GFLOPS")
	})
}

// BenchmarkFig6DistributedOBCX — measured distributed runs on goroutine
// ranks plus the OBCX strong-scaling model (paper Fig. 6).
func BenchmarkFig6DistributedOBCX(b *testing.B) {
	b.Run("Measured/P=4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			row := bench.DistMeasured(1, 1<<14, 32, 26, 1e-12, 4)
			if row.IteStats.Collectives >= row.HQRStats.Collectives {
				b.Fatal("CA property violated")
			}
		}
	})
	b.Run("Model", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows := bench.DistScalingModel(dist.OBCX, bench.DistM,
				[]int{16, 64, 128, 512, 1024}, []int{16, 128, 1024, 2048}, 3)
			if len(rows) == 0 {
				b.Fatal("no rows")
			}
		}
	})
}

// BenchmarkFig7DistributedBDECO — the BDEC-O model sweep (paper Fig. 7).
func BenchmarkFig7DistributedBDECO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.DistScalingModel(dist.BDECO, bench.DistM,
			[]int{16, 64, 128, 512, 1024}, []int{32, 512, 4096, 16384}, 3)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig8CommBehaviour — communication time vs n at large node
// counts, including the BDEC-O protocol cliff (paper Fig. 8).
func BenchmarkFig8CommBehaviour(b *testing.B) {
	ns := []int{16, 32, 64, 128, 256, 512, 1024}
	for i := 0; i < b.N; i++ {
		for _, n := range ns {
			o := dist.ModelIteCholQRCP(dist.OBCX, bench.DistM, n, 2048, 3)
			d := dist.ModelIteCholQRCP(dist.BDECO, bench.DistM, n, 16384, 3)
			if o.Comm <= 0 || d.Comm <= 0 {
				b.Fatal("no comm time")
			}
		}
	}
}

// BenchmarkTable3Breakdown — the comp/comm breakdown at small and large
// node counts (paper Table III), measured at small scale with the
// instrumented communicator and modeled at paper scale.
func BenchmarkTable3Breakdown(b *testing.B) {
	b.Run("Measured", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			row := bench.DistMeasured(1, 1<<14, 64, 51, 1e-12, 4)
			if row.IteStats.CommTime <= 0 {
				b.Fatal("no comm time recorded")
			}
		}
	})
	b.Run("Model", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range []int{16, 2048} {
				for _, n := range []int{16, 128, 1024} {
					hqr := dist.ModelHQRCP(dist.OBCX, bench.DistM, n, p, true)
					ite := dist.ModelIteCholQRCP(dist.OBCX, bench.DistM, n, p, 3)
					if hqr.Total() <= 0 || ite.Total() <= 0 {
						b.Fatal("bad model output")
					}
				}
			}
		}
	})
}

// BenchmarkAblationEps — the tolerance ablation behind the paper's
// ε ≈ 1e-5 recommendation (§III-D2).
func BenchmarkAblationEps(b *testing.B) {
	a := benchMatrix(4000, 32, 26, 1e-12)
	for _, eps := range []float64{1e-2, 1e-5, 1e-8} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.IteCholQRCP(parallel.Default, a, eps, a.Cols); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationHQRCPBlocking — the blocked (DGEQP3-style) Householder
// QRCP whose Level-3 blocking the paper discusses in §II-C. Its unblocked
// DGEQPF-style counterpart is a test oracle of internal/lapack, no longer
// a library routine, so the ablation times the blocked leg alone.
func BenchmarkAblationHQRCPBlocking(b *testing.B) {
	a := benchMatrix(8000, 64, 51, 1e-12)
	b.Run("Geqp3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.HQRCP(parallel.Default, a)
		}
	})
}

// BenchmarkAblationTruncated — full vs rank-k truncated QRCP, the
// partial-factorization advantage of §V.
func BenchmarkAblationTruncated(b *testing.B) {
	a := benchMatrix(10000, 64, 51, 1e-12)
	b.Run("Full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.IteCholQRCP(parallel.Default, a, core.DefaultPivotTol, a.Cols); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Rank8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.IteCholQRCP(parallel.Default, a, core.DefaultPivotTol, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Rank8-HQRCP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.HQRCPTruncated(parallel.Default, a, 8)
		}
	})
}

// BenchmarkComparatorQRCP — the §V comparison: every QRCP approach the
// paper discusses, on the same tall-skinny matrix.
func BenchmarkComparatorQRCP(b *testing.B) {
	a := benchMatrix(10000, 32, 26, 1e-12)
	b.Run("IteCholQRCP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.IteCholQRCP(parallel.Default, a, core.DefaultPivotTol, a.Cols); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("HQRCP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.HQRCP(parallel.Default, a)
		}
	})
	b.Run("QRThenQRCP-TSQR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.QRThenQRCP(parallel.Default, a, core.Infallible(core.TSQR)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("QRThenQRCP-ShiftedCholQR3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.QRThenQRCP(parallel.Default, a, core.ShiftedCholQR3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkComparatorUnpivotedQR — the unpivoted tall-skinny QR family
// the paper builds on (§III-A): CholQR, CholeskyQR2, shifted CholeskyQR3,
// TSQR, blocked Householder.
func BenchmarkComparatorUnpivotedQR(b *testing.B) {
	a := benchMatrix(20000, 32, 32, 1e-4) // κ₂ = 1e4: all methods valid
	type entry struct {
		name string
		run  func() error
	}
	entries := []entry{
		{"CholQR", func() error { _, err := core.CholQR(parallel.Default, a); return err }},
		{"CholeskyQR2", func() error { _, err := core.CholQR2(parallel.Default, a); return err }},
		{"ShiftedCholQR3", func() error { _, err := core.ShiftedCholQR3(parallel.Default, a); return err }},
		{"TSQR", func() error { core.TSQR(parallel.Default, a); return nil }},
		{"HouseholderQR", func() error { core.HouseholderQR(parallel.Default, a); return nil }},
	}
	for _, e := range entries {
		b.Run(e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationStrongRRQR — greedy QRCP vs the Gu–Eisenstat strong
// RRQR post-processing (paper reference [14]): the swap loop's cost on
// top of the baseline factorization.
func BenchmarkAblationStrongRRQR(b *testing.B) {
	a := benchMatrix(5000, 32, 32, 1e-8)
	b.Run("GreedyQRCP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.HQRCP(parallel.Default, a)
		}
	})
	b.Run("StrongRRQR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.StrongRRQR(parallel.Default, a, 24, core.DefaultStrongRRQRF); err != nil {
				b.Fatal(err)
			}
		}
	})
}
