// Package bench contains the experiment harnesses that regenerate every
// table and figure of the paper's evaluation (§III-C preliminary
// experiments and §IV performance evaluation). Each figure has a driver
// returning structured rows and a printer that emits the same series the
// paper plots. cmd/report runs them, one figure per -fig value (the
// values are listed in DESIGN.md §8); the repository-root bench_test.go
// exposes the same drivers as testing.B benchmarks.
//
// Paper-scale parameters are provided as package constants; every driver
// also accepts scaled-down shapes so the full suite can run on a laptop.
// EXPERIMENTS.md records paper-reported vs. measured values.
package bench

import (
	"time"
)

// Paper-scale experiment parameters (§IV).
var (
	// AccuracyShape is the m, n, r of Figs. 1(a), 2 and 3.
	AccuracyShape = struct{ M, N, R int }{10000, 50, 40}
	// SingleNodeMs are the row counts of the Fig. 4/5 sweep.
	SingleNodeMs = []int{10000, 50000, 100000}
	// SingleNodeNRs are the (n, r) pairs of the Fig. 4/5 sweep.
	SingleNodeNRs = []NR{{16, 13}, {32, 26}, {64, 51}, {128, 102}, {256, 205}, {512, 410}, {1024, 820}}
	// DistM is the global row count of the distributed experiments (2²⁴).
	DistM = 1 << 24
	// TimingSigma is the grading parameter of all timing runs.
	TimingSigma = 1e-12
	// TimingRepeats: each method runs this many times; best time is kept.
	TimingRepeats = 5
)

// NR is an (n, numerical rank) pair from the paper's sweeps.
type NR struct{ N, R int }

// Flops converts an execution time into the paper's "effective FLOPS"
// (Eq. 19): (4mn² − 4n³/3) / t. It is a comparison yardstick, not the
// operation count of any particular algorithm.
func Flops(m, n int, t time.Duration) float64 {
	if t <= 0 {
		return 0
	}
	mf, nf := float64(m), float64(n)
	return (4*mf*nf*nf - 4*nf*nf*nf/3) / t.Seconds()
}

// bestOf runs f `repeats` times and returns the minimum duration, the
// paper's measurement protocol ("run each method 5 times and evaluate the
// best results").
func bestOf(repeats int, f func()) time.Duration {
	if repeats < 1 {
		repeats = 1
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}
