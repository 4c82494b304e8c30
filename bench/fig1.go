package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/blas"
	"repro/internal/cholcp"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/mat"
	"repro/metrics"
	"repro/testmat"
)

// PivotRecord is one pivot position of a Chol-CP vs HQR-CP comparison:
// the outcome and the reference diagonal magnitude |r_ii/r_11| from the
// Householder factorization, the quantity the paper's Fig. 1(b,c) plots
// on the y-axis.
type PivotRecord struct {
	Position  int
	Outcome   metrics.PivotOutcome
	DiagRatio float64 // |r_ii / r_11| of the HQR-CP R factor
}

// CholCPPivotExperiment runs raw Cholesky-with-complete-pivoting on the
// Gram matrix of one test matrix and classifies every pivot against the
// HQR-CP reference — the paper's preliminary experiment (Fig. 1(a) for a
// single matrix; called in a sweep for Fig. 1(b,c)).
func CholCPPivotExperiment(a *mat.Dense) []PivotRecord {
	n := a.Cols
	ref := core.HQRCPNoQ(parallel.Default, a)
	w := mat.NewDense(n, n)
	blas.Gram(parallel.Default, w, a)
	res := cholcp.CholCP(parallel.Default, w)
	out := metrics.ClassifyPivots(res.Perm, ref.Perm, res.NPiv, n)
	r11 := math.Abs(ref.R.At(0, 0))
	recs := make([]PivotRecord, n)
	for j := 0; j < n; j++ {
		recs[j] = PivotRecord{
			Position:  j,
			Outcome:   out[j],
			DiagRatio: math.Abs(ref.R.At(j, j)) / r11,
		}
	}
	return recs
}

// Fig1a reproduces Fig. 1(a): the per-position pivot outcome of Chol-CP
// for one matrix with the paper's parameters (m=10000, n=50, r=40,
// σ=1e-12; pass smaller shapes for quick runs).
func Fig1a(seed int64, m, n, r int, sigma float64) []PivotRecord {
	rng := rand.New(rand.NewSource(seed))
	a := testmat.Generate(rng, m, n, r, sigma)
	return CholCPPivotExperiment(a)
}

// Fig1bRow is one condition-number point of Fig. 1(b).
type Fig1bRow struct {
	Kappa   float64
	Records []PivotRecord
}

// Fig1b reproduces Fig. 1(b): pivot outcomes vs |r_ii/r_11| across a sweep
// of condition numbers (paper: m=10000, n=r=50, κ₂ from 10⁰ to 10¹⁶).
func Fig1b(seed int64, m, n int, kappas []float64) []Fig1bRow {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]Fig1bRow, 0, len(kappas))
	for _, kappa := range kappas {
		sigma := 1 / kappa
		if sigma > 1 {
			sigma = 1
		}
		a := testmat.Generate(rng, m, n, n, sigma)
		rows = append(rows, Fig1bRow{Kappa: kappa, Records: CholCPPivotExperiment(a)})
	}
	return rows
}

// Fig1cStats summarizes the Monte-Carlo experiment of Fig. 1(c): for each
// decade of |r_ii/r_11| it counts correct, incorrect and not-computed
// pivot selections, establishing the reliability threshold (the paper
// finds pivots trustworthy down to |r_ii/r_11| ≈ 1e-6 and unreliable
// below).
type Fig1cStats struct {
	// Decade d covers diag ratios in [10^(−d−1), 10^(−d)).
	Correct, Incorrect, NotComputed []int
	Matrices                        int
}

// Fig1c runs `count` random matrices with log-uniform κ₂ ∈ [10, 1e16]
// (paper: 1000 matrices, m=10000, n=r=40) and bins pivot outcomes by the
// decade of |r_ii/r_11|.
func Fig1c(seed int64, count, m, n int) Fig1cStats {
	const decades = 18
	rng := rand.New(rand.NewSource(seed))
	st := Fig1cStats{
		Correct:     make([]int, decades),
		Incorrect:   make([]int, decades),
		NotComputed: make([]int, decades),
		Matrices:    count,
	}
	for i := 0; i < count; i++ {
		gamma := 1 + 15*rng.Float64() // κ = 10^γ, γ ∈ [1,16]
		sigma := math.Pow(10, -gamma)
		a := testmat.Generate(rng, m, n, n, sigma)
		for _, rec := range CholCPPivotExperiment(a) {
			d := decadeOf(rec.DiagRatio, decades)
			switch rec.Outcome {
			case metrics.PivotCorrect:
				st.Correct[d]++
			case metrics.PivotIncorrect:
				st.Incorrect[d]++
			default:
				st.NotComputed[d]++
			}
		}
	}
	return st
}

// ReliabilityThreshold returns the largest diag-ratio decade at which any
// incorrect pivot was observed, as a ratio (e.g. 1e-6). Returns 0 when no
// incorrect pivots occurred.
func (st Fig1cStats) ReliabilityThreshold() float64 {
	for d := 0; d < len(st.Incorrect); d++ {
		if st.Incorrect[d] > 0 {
			return math.Pow(10, -float64(d))
		}
	}
	return 0
}

func decadeOf(ratio float64, decades int) int {
	if ratio >= 1 {
		return 0
	}
	d := int(-math.Log10(ratio))
	if d < 0 {
		d = 0
	}
	if d >= decades {
		d = decades - 1
	}
	return d
}

// PrintFig1a writes the Fig. 1(a)-style outcome strip.
func PrintFig1a(w io.Writer, recs []PivotRecord) {
	fmt.Fprintln(w, "Fig 1(a): Chol-CP pivot outcomes vs HQR-CP (✓ correct, ✗ incorrect, - not computed)")
	fmt.Fprintf(w, "  pos: ")
	for _, r := range recs {
		fmt.Fprintf(w, "%s", r.Outcome)
	}
	fmt.Fprintln(w)
	first := len(recs)
	computed := 0
	for _, r := range recs {
		if r.Outcome != metrics.PivotNotComputed {
			computed++
		}
	}
	for i, r := range recs {
		if r.Outcome != metrics.PivotCorrect {
			first = i
			break
		}
	}
	fmt.Fprintf(w, "  correct prefix: %d, computed: %d of %d\n", first, computed, len(recs))
}

// PrintFig1b writes one Fig. 1(b)-style outcome strip per condition
// number.
func PrintFig1b(w io.Writer, rows []Fig1bRow) {
	fmt.Fprintln(w, "Fig 1(b): Chol-CP pivot outcomes across condition numbers")
	for _, row := range rows {
		fmt.Fprintf(w, "  κ=%-8.0e ", row.Kappa)
		for _, rec := range row.Records {
			fmt.Fprintf(w, "%s", rec.Outcome)
		}
		fmt.Fprintln(w)
	}
}

// PrintFig1c writes the Fig. 1(c)-style reliability histogram.
func PrintFig1c(w io.Writer, st Fig1cStats) {
	fmt.Fprintf(w, "Fig 1(c): pivot outcome by |r_ii/r_11| decade over %d matrices\n", st.Matrices)
	fmt.Fprintf(w, "  %-14s %10s %10s %12s\n", "|r_ii/r_11|", "correct", "incorrect", "not computed")
	for d := range st.Correct {
		if st.Correct[d]+st.Incorrect[d]+st.NotComputed[d] == 0 {
			continue
		}
		fmt.Fprintf(w, "  [1e-%02d,1e-%02d) %10d %10d %12d\n",
			d+1, d, st.Correct[d], st.Incorrect[d], st.NotComputed[d])
	}
	fmt.Fprintf(w, "  first unreliable decade: |r_ii/r_11| ≈ %.0e (paper: ≈ 1e-6)\n",
		st.ReliabilityThreshold())
}
