package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/testmat"
)

// TimingRow is one (m, n) cell of the single-node comparison
// (Figs. 4 and 5): best-of-k times of both methods, the speedup ratio,
// and the effective FLOPS of Eq. (19).
type TimingRow struct {
	M, N, R    int
	TimeIte    time.Duration
	TimeHQR    time.Duration
	Speedup    float64
	FlopsIte   float64
	FlopsHQR   float64
	Iterations int
}

// SingleNodeSweep reproduces the Fig. 4/5 measurement: for each matrix
// shape it times Ite-CholQR-CP (ε = 1e-5) against the blocked Householder
// QRCP baseline (DGEQP3 + DORGQR structure, explicit Q), taking the best
// of `repeats` runs.
func SingleNodeSweep(seed int64, ms []int, nrs []NR, sigma float64, repeats int) []TimingRow {
	var rows []TimingRow
	for _, m := range ms {
		for _, nr := range nrs {
			if nr.N > m {
				continue
			}
			rows = append(rows, timeOneShape(seed, m, nr, sigma, repeats))
		}
	}
	return rows
}

func timeOneShape(seed int64, m int, nr NR, sigma float64, repeats int) TimingRow {
	rng := rand.New(rand.NewSource(seed))
	a := testmat.Generate(rng, m, nr.N, nr.R, sigma)
	var iters int
	tIte := bestOf(repeats, func() {
		res, err := core.IteCholQRCP(parallel.Default, a, core.DefaultPivotTol, a.Cols)
		if err != nil {
			panic(fmt.Sprintf("bench: Ite-CholQR-CP failed on m=%d n=%d: %v", m, nr.N, err))
		}
		iters = res.Iterations
	})
	tHQR := bestOf(repeats, func() {
		core.HQRCP(parallel.Default, a)
	})
	return TimingRow{
		M: m, N: nr.N, R: nr.R,
		TimeIte: tIte, TimeHQR: tHQR,
		Speedup:    tHQR.Seconds() / tIte.Seconds(),
		FlopsIte:   Flops(m, nr.N, tIte),
		FlopsHQR:   Flops(m, nr.N, tHQR),
		Iterations: iters,
	}
}

// PrintFig4 writes the speedup table of Fig. 4.
func PrintFig4(w io.Writer, rows []TimingRow) {
	fmt.Fprintln(w, "Fig 4: speedup of Ite-CholQR-CP (ε=1e-5) over Householder QRCP, single node")
	fmt.Fprintf(w, "  %-9s %-6s %-6s %12s %12s %9s %6s\n", "m", "n", "r", "t_ite", "t_hqr", "speedup", "iters")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-9d %-6d %-6d %12v %12v %8.1fx %6d\n",
			r.M, r.N, r.R, r.TimeIte.Round(time.Microsecond), r.TimeHQR.Round(time.Microsecond),
			r.Speedup, r.Iterations)
	}
}

// PrintFig5 writes the effective-FLOPS series of Fig. 5.
func PrintFig5(w io.Writer, rows []TimingRow) {
	fmt.Fprintln(w, "Fig 5: effective FLOPS (Eq. 19)")
	fmt.Fprintf(w, "  %-9s %-6s %14s %14s\n", "m", "n", "GFLOPS ite", "GFLOPS hqr")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-9d %-6d %14.2f %14.2f\n", r.M, r.N, r.FlopsIte/1e9, r.FlopsHQR/1e9)
	}
}

// AblationEpsRow is one ε of the tolerance ablation: iterations needed and
// whether the essential pivots matched HQR-CP. This quantifies the
// cost-accuracy tradeoff behind the paper's ε ≈ 1e-5 recommendation.
type AblationEpsRow struct {
	Eps        float64
	Iterations int
	Correct    bool
	Time       time.Duration
	Failed     bool
}

// AblationEps sweeps the P-Chol-CP tolerance on one matrix.
func AblationEps(seed int64, m, n, r int, sigma float64, epss []float64) []AblationEpsRow {
	rng := rand.New(rand.NewSource(seed))
	a := testmat.Generate(rng, m, n, r, sigma)
	ref := core.HQRCPNoQ(parallel.Default, a)
	var rows []AblationEpsRow
	for _, eps := range epss {
		start := time.Now()
		res, err := core.IteCholQRCP(parallel.Default, a, eps, a.Cols)
		elapsed := time.Since(start)
		if err != nil {
			rows = append(rows, AblationEpsRow{Eps: eps, Failed: true, Time: elapsed})
			continue
		}
		correct := true
		for j := 0; j < r; j++ {
			if res.Perm[j] != ref.Perm[j] {
				correct = false
				break
			}
		}
		rows = append(rows, AblationEpsRow{Eps: eps, Iterations: res.Iterations, Correct: correct, Time: elapsed})
	}
	return rows
}

// PrintAblationEps writes the ε ablation table.
func PrintAblationEps(w io.Writer, rows []AblationEpsRow) {
	fmt.Fprintln(w, "Ablation: P-Chol-CP tolerance ε vs iterations and pivot correctness")
	fmt.Fprintf(w, "  %-9s %8s %9s %12s\n", "eps", "iters", "correct", "time")
	for _, r := range rows {
		if r.Failed {
			fmt.Fprintf(w, "  %-9.0e %8s\n", r.Eps, "FAILED")
			continue
		}
		fmt.Fprintf(w, "  %-9.0e %8d %9v %12v\n", r.Eps, r.Iterations, r.Correct, r.Time.Round(time.Microsecond))
	}
}
