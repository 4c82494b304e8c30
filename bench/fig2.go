package bench

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/mat"
	"repro/metrics"
	"repro/testmat"
)

// MethodAccuracy is one (σ, method) cell of Fig. 2: the four accuracy
// metrics of §IV-B.
type MethodAccuracy struct {
	Sigma   float64
	Method  string
	Orth    float64 // ‖QᵀQ−I‖_F/√n          — Fig. 2(a)
	Resid   float64 // ‖AΠ−QR‖_F/‖A‖_F       — Fig. 2(b)
	CondR11 float64 // κ₂(R₁₁)               — Fig. 2(c)
	NormR22 float64 // ‖R₂₂‖₂                — Fig. 2(d)
	Rank    int     // columns factored; below r, (c) and (d) are unset
	Short   bool    // Rank < r: the run stopped short of R₁₁
	Failed  bool    // algorithm broke down
}

// Fig2 reproduces the accuracy comparison of Fig. 2: for each σ it runs
// HQR-CP (DGEQP3), Ite-CholQR-CP with ε = 1e-5 and with ε = 0, and
// evaluates all four metrics using the known numerical rank r.
func Fig2(seed int64, m, n, r int, sigmas []float64) []MethodAccuracy {
	rng := rand.New(rand.NewSource(seed))
	var rows []MethodAccuracy
	for _, sigma := range sigmas {
		a := testmat.Generate(rng, m, n, r, sigma)
		ref := core.HQRCP(parallel.Default, a)
		rows = append(rows, accuracyRow(sigma, "HQR-CP", a, ref, r))
		for _, ite := range []struct {
			method string
			eps    float64
		}{{"Ite-CholQR-CP(1e-5)", 1e-5}, {"Ite-CholQR-CP(0)", 0}} {
			res, err := core.IteCholQRCP(parallel.Default, a, ite.eps, n)
			if err != nil {
				rows = append(rows, MethodAccuracy{Sigma: sigma, Method: ite.method, Failed: true})
				continue
			}
			rows = append(rows, accuracyRow(sigma, ite.method, a, res, r))
		}
	}
	return rows
}

// accuracyRow scores one factorization; κ₂(R₁₁) and ‖R₂₂‖₂ need at
// least r rows of R, so a run that stopped at a lower rank reports it
// instead.
func accuracyRow(sigma float64, method string, a *mat.Dense, res *core.CPResult, r int) MethodAccuracy {
	row := MethodAccuracy{
		Sigma:  sigma,
		Method: method,
		Orth:   metrics.Orthogonality(res.Q),
		Resid:  metrics.Residual(a, res.Q, res.R, res.Perm),
		Rank:   res.R.Rows,
		Short:  res.R.Rows < r,
	}
	if !row.Short {
		row.CondR11 = metrics.CondR11(res.R, r)
		row.NormR22 = metrics.NormR22(res.R, r)
	}
	return row
}

// PrintFig2 writes the four metric series.
func PrintFig2(w io.Writer, rows []MethodAccuracy) {
	fmt.Fprintln(w, "Fig 2: accuracy metrics (per σ and method)")
	fmt.Fprintf(w, "  %-9s %-22s %12s %12s %12s %12s\n",
		"sigma", "method", "orth(a)", "resid(b)", "k2(R11)(c)", "|R22|2(d)")
	for _, r := range rows {
		if r.Failed {
			fmt.Fprintf(w, "  %-9.0e %-22s %12s\n", r.Sigma, r.Method, "FAILED")
			continue
		}
		if r.Short {
			fmt.Fprintf(w, "  %-9.0e %-22s %12.2e %12.2e %25s\n",
				r.Sigma, r.Method, r.Orth, r.Resid, fmt.Sprintf("stopped at rank %d", r.Rank))
			continue
		}
		fmt.Fprintf(w, "  %-9.0e %-22s %12.2e %12.2e %12.2e %12.2e\n",
			r.Sigma, r.Method, r.Orth, r.Resid, r.CondR11, r.NormR22)
	}
}

// Fig3Row is one σ of the pivot-correctness experiment of Fig. 3: for
// each pivot position, the iteration that fixed it and whether it matches
// the HQR-CP reference.
type Fig3Row struct {
	Sigma      float64
	Eps        float64
	Outcomes   []metrics.PivotOutcome // length r (essential positions only)
	PivotIter  []int
	Iterations int
	Rank       int // columns factored; positions from Rank on are not computed
	Failed     bool
}

// Fig3 reproduces Fig. 3: per-σ pivot correctness of Ite-CholQR-CP for a
// given tolerance (the paper compares ε = 1e-5, always correct, against
// ε = 0, wrong for κ₂ > 1e8).
func Fig3(seed int64, m, n, r int, sigmas []float64, eps float64) []Fig3Row {
	rng := rand.New(rand.NewSource(seed))
	var rows []Fig3Row
	for _, sigma := range sigmas {
		a := testmat.Generate(rng, m, n, r, sigma)
		ref := core.HQRCPNoQ(parallel.Default, a)
		res, err := core.IteCholQRCP(parallel.Default, a, eps, n)
		if err != nil {
			rows = append(rows, Fig3Row{Sigma: sigma, Eps: eps, Failed: true})
			continue
		}
		rows = append(rows, Fig3Row{
			Sigma:      sigma,
			Eps:        eps,
			Outcomes:   metrics.ClassifyPivots(res.Perm, ref.Perm, res.Rank, r),
			PivotIter:  res.PivotIter[:min(r, res.Rank)],
			Iterations: res.Iterations,
			Rank:       res.Rank,
		})
	}
	return rows
}

// PrintFig3 writes the per-σ correctness strips.
func PrintFig3(w io.Writer, rows []Fig3Row) {
	if len(rows) > 0 {
		fmt.Fprintf(w, "Fig 3: Ite-CholQR-CP pivot correctness, ε = %.0e\n", rows[0].Eps)
	}
	for _, r := range rows {
		if r.Failed {
			fmt.Fprintf(w, "  σ=%-8.0e BREAKDOWN\n", r.Sigma)
			continue
		}
		fmt.Fprintf(w, "  σ=%-8.0e iters=%d  ", r.Sigma, r.Iterations)
		for _, o := range r.Outcomes {
			fmt.Fprintf(w, "%s", o)
		}
		if r.Rank < len(r.Outcomes) {
			fmt.Fprintf(w, "  stopped at rank %d", r.Rank)
		}
		fmt.Fprintln(w)
	}
}

// AllPivotsCorrect reports whether every essential pivot in every row is
// correct — the paper's claim for ε = 1e-5 (Fig. 3(a)).
func AllPivotsCorrect(rows []Fig3Row) bool {
	for _, r := range rows {
		if r.Failed {
			return false
		}
		for _, o := range r.Outcomes {
			if o != metrics.PivotCorrect {
				return false
			}
		}
	}
	return true
}
