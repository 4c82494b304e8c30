package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/dist"
	"repro/internal/core"
	"repro/mat"
	"repro/testmat"
)

// DistModelRow is one (P, n) cell of the modeled strong-scaling
// comparison (Figs. 6 and 7): modeled comp/comm breakdowns of both
// methods and the speedup ratio — the same series the paper plots.
type DistModelRow struct {
	P, N    int
	Ite     dist.Breakdown
	HQR     dist.Breakdown
	Speedup float64
}

// DistScalingModel evaluates the α-β model over the paper's strong-
// scaling grid (m = 2²⁴; n and P sweeps; iters = 3 pivoting iterations as
// observed for σ = 1e-12).
func DistScalingModel(mc dist.Machine, m int, ns, ps []int, iters int) []DistModelRow {
	var rows []DistModelRow
	for _, p := range ps {
		for _, n := range ns {
			ite := dist.ModelIteCholQRCP(mc, m, n, p, iters)
			hqr := dist.ModelHQRCP(mc, m, n, p, true)
			rows = append(rows, DistModelRow{
				P: p, N: n, Ite: ite, HQR: hqr,
				Speedup: hqr.Total() / ite.Total(),
			})
		}
	}
	return rows
}

// PrintDistScaling writes the Fig. 6/7-style table (execution time of both
// methods and the speedup, per P and n).
func PrintDistScaling(w io.Writer, mc dist.Machine, rows []DistModelRow) {
	fmt.Fprintf(w, "Fig 6/7 (%s model): strong scaling, modeled times\n", mc.Name)
	fmt.Fprintf(w, "  %-7s %-6s %12s %12s %9s %18s %18s\n",
		"P", "n", "t_hqr", "t_ite", "speedup", "hqr comp/comm", "ite comp/comm")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-7d %-6d %12.3e %12.3e %8.1fx  %8.1e/%8.1e  %8.1e/%8.1e\n",
			r.P, r.N, r.HQR.Total(), r.Ite.Total(), r.Speedup,
			r.HQR.Comp, r.HQR.Comm, r.Ite.Comp, r.Ite.Comm)
	}
}

// PrintFig8 writes the communication-time-vs-n series at a fixed large P
// (Fig. 8), which exposes the BDEC-O protocol-switch cliff.
func PrintFig8(w io.Writer, mc dist.Machine, m, p, iters int, ns []int) {
	fmt.Fprintf(w, "Fig 8 (%s model): communication time at P=%d\n", mc.Name, p)
	fmt.Fprintf(w, "  %-6s %14s %14s\n", "n", "comm_ite", "comm_hqr")
	for _, n := range ns {
		ite := dist.ModelIteCholQRCP(mc, m, n, p, iters)
		hqr := dist.ModelHQRCP(mc, m, n, p, true)
		fmt.Fprintf(w, "  %-6d %14.3e %14.3e\n", n, ite.Comm, hqr.Comm)
	}
}

// PrintTable3 writes the comp./comm. breakdown table (Table III) from the
// model at the paper's node counts.
func PrintTable3(w io.Writer, mc dist.Machine, m, iters int, ps, ns []int) {
	fmt.Fprintf(w, "Table III (%s model): breakdown of execution time (s)\n", mc.Name)
	fmt.Fprintf(w, "  %-7s %-6s | %10s %10s %5s | %10s %10s %5s\n",
		"P", "n", "hqr comp", "hqr comm", "(%)", "ite comp", "ite comm", "(%)")
	for _, p := range ps {
		for _, n := range ns {
			hqr := dist.ModelHQRCP(mc, m, n, p, true)
			ite := dist.ModelIteCholQRCP(mc, m, n, p, iters)
			fmt.Fprintf(w, "  %-7d %-6d | %10.1e %10.1e %4.0f%% | %10.1e %10.1e %4.0f%%\n",
				p, n,
				hqr.Comp, hqr.Comm, 100*hqr.Comm/hqr.Total(),
				ite.Comp, ite.Comm, 100*ite.Comm/ite.Total())
		}
	}
}

// DistMeasuredRow is one measured (goroutine-rank) strong-scaling point:
// real wall times of both distributed algorithms on a LocalGroup, with
// the measured communication share from the instrumented communicator.
type DistMeasuredRow struct {
	P, N       int
	TimeIte    time.Duration
	TimeHQR    time.Duration
	IteStats   dist.Stats
	HQRStats   dist.Stats
	Speedup    float64
	Iterations int
}

// DistMeasured runs both distributed algorithms for real on p goroutine
// ranks (shared-memory communicator) and measures wall time and
// communication counters. This validates the collective counts and the
// algorithm itself at small scale; the model extrapolates to the paper's
// process counts.
func DistMeasured(seed int64, m, n, r int, sigma float64, p int) DistMeasuredRow {
	rng := rand.New(rand.NewSource(seed))
	a := testmat.Generate(rng, m, n, r, sigma)
	layout := dist.Layout{M: m, P: p}
	blocks := make([]*mat.Dense, p)
	for rk := 0; rk < p; rk++ {
		lo, hi := layout.RowRange(rk)
		blocks[rk] = a.RowSlice(lo, hi).Clone()
	}
	row := DistMeasuredRow{P: p, N: n}

	stats := make([]dist.Stats, p)
	start := time.Now()
	dist.Run(p, func(c dist.Comm) {
		ic := dist.Instrument(c)
		res, err := dist.IteCholQRCP(ic, blocks[c.Rank()], core.DefaultPivotTol)
		if err != nil {
			panic(err)
		}
		stats[c.Rank()] = ic.Stats()
		if c.Rank() == 0 {
			row.Iterations = res.Iterations
		}
	})
	row.TimeIte = time.Since(start)
	row.IteStats = stats[0]

	start = time.Now()
	dist.Run(p, func(c dist.Comm) {
		ic := dist.Instrument(c)
		dist.HQRCP(ic, blocks[c.Rank()], layout, true)
		stats[c.Rank()] = ic.Stats()
	})
	row.TimeHQR = time.Since(start)
	row.HQRStats = stats[0]
	row.Speedup = row.TimeHQR.Seconds() / row.TimeIte.Seconds()
	return row
}

// PrintDistMeasured writes measured LocalGroup rows.
func PrintDistMeasured(w io.Writer, rows []DistMeasuredRow) {
	fmt.Fprintln(w, "Measured (goroutine ranks): distributed Ite-CholQR-CP vs HQR-CP")
	fmt.Fprintf(w, "  %-4s %-6s %12s %12s %9s %14s %14s\n",
		"P", "n", "t_ite", "t_hqr", "speedup", "ite collectives", "hqr collectives")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-4d %-6d %12v %12v %8.1fx %14d %14d\n",
			r.P, r.N, r.TimeIte.Round(time.Microsecond), r.TimeHQR.Round(time.Microsecond),
			r.Speedup, r.IteStats.Collectives, r.HQRStats.Collectives)
	}
}

// DistTraceExtrapolate runs distributed Ite-CholQR-CP for real at small
// scale with an instrumented communicator, then replays the captured collective
// timeline through the α-β machine model at each requested process count
// — the trace-driven alternative to the closed-form model (computation
// comes from measurement instead of a flop-rate guess; the collective
// sequence is exact by construction).
func DistTraceExtrapolate(seed int64, mMeasured, n, r int, sigma float64, pMeasured int,
	mc dist.Machine, mTarget int, ps []int) []DistModelRow {
	rng := rand.New(rand.NewSource(seed))
	a := testmat.Generate(rng, mMeasured, n, r, sigma)
	layout := dist.Layout{M: mMeasured, P: pMeasured}
	blocks := make([]*mat.Dense, pMeasured)
	for rk := 0; rk < pMeasured; rk++ {
		lo, hi := layout.RowRange(rk)
		blocks[rk] = a.RowSlice(lo, hi).Clone()
	}
	var iteTrace, hqrTrace []dist.TraceEvent
	var iteTail, hqrTail time.Duration
	dist.Run(pMeasured, func(c dist.Comm) {
		tc := dist.Instrument(c)
		if _, err := dist.IteCholQRCP(tc, blocks[c.Rank()], core.DefaultPivotTol); err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			iteTrace = tc.Trace()
			iteTail = tc.TailComp(time.Now())
		}
	})
	dist.Run(pMeasured, func(c dist.Comm) {
		tc := dist.Instrument(c)
		dist.HQRCP(tc, blocks[c.Rank()], layout, true)
		if c.Rank() == 0 {
			hqrTrace = tc.Trace()
			hqrTail = tc.TailComp(time.Now())
		}
	})
	// The measured per-rank computation corresponds to mMeasured/pMeasured
	// rows; scale the replay so computation reflects mTarget/p rows. Both
	// algorithms are measured with the same kernels, so the comparison is
	// self-consistent.
	rowScale := float64(mTarget) / float64(mMeasured)
	var rows []DistModelRow
	for _, p := range ps {
		ite := dist.ReplayTrace(mc, iteTrace, iteTail, pMeasured, p)
		ite.Comp *= rowScale
		hqr := dist.ReplayTrace(mc, hqrTrace, hqrTail, pMeasured, p)
		hqr.Comp *= rowScale
		rows = append(rows, DistModelRow{P: p, N: n, Ite: ite, HQR: hqr,
			Speedup: hqr.Total() / ite.Total()})
	}
	return rows
}
