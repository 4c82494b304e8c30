package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/mat"
	"repro/metrics"
	"repro/testmat"
)

// ComparatorRow is one method of a §V comparison table on one matrix:
// its best time and accuracy and, in the pivoted table, how its pivots
// compare with HQR-CP's on the same matrix.
type ComparatorRow struct {
	Name  string
	Kappa float64 // κ₂ of the unpivoted table's matrix; 0 in the pivoted table
	Time  time.Duration
	Orth  float64
	Resid float64
	// PivotsAgree reports the first r pivots equal HQR-CP's, and
	// PivotQuality is metrics.PivotQuality against HQR-CP's R at r.
	PivotsAgree  bool
	PivotQuality float64
	Failed       bool
}

// ComparatorTable is one §V table: every row measured by the same
// harness on the same matrices.
type ComparatorTable struct {
	Title   string
	Pivoted bool
	Rows    []ComparatorRow
}

// PivotedCase is the pivoted table's matrix, testmat.Generate(M, N, R, Sigma);
// the truncated methods stop at rank R.
type PivotedCase struct {
	M, N, R int
	Sigma   float64
}

// UnpivotedCase is the unpivoted table's matrices: one M×N
// testmat.GenerateWellConditioned matrix per κ₂ in Kappas.
type UnpivotedCase struct {
	M, N   int
	Kappas []float64
}

// method is one row's factorization A·P = Q·R (P = I for the unpivoted
// family).
type method struct {
	name string
	run  func(a *mat.Dense) (*core.CPResult, error)
}

// unpivoted adapts an unpivoted QR to a method's signature.
func unpivoted(qr func(*parallel.Engine, *mat.Dense) (*core.QR, error)) func(a *mat.Dense) (*core.CPResult, error) {
	return func(a *mat.Dense) (*core.CPResult, error) {
		res, err := qr(parallel.Default, a)
		if err != nil {
			return nil, err
		}
		return &core.CPResult{Q: res.Q, R: res.R, Perm: mat.IdentityPerm(a.Cols)}, nil
	}
}

// Comparators runs the two §V tables. The pivoted table runs every QRCP
// approach §V discusses on one graded matrix: Ite-CholQR-CP, full and
// truncated at rank r, HQR-CP, QR-then-QRCP (Cunha–Becker–Patterson)
// over TSQR and over shifted CholeskyQR3, CQRRPT, and strong RRQR at
// rank r. The unpivoted table runs the tall-skinny QR family the paper
// builds on across κ₂.
func Comparators(seed int64, pc PivotedCase, uc UnpivotedCase, repeats int) []ComparatorTable {
	r := pc.R
	a := testmat.Generate(rand.New(rand.NewSource(seed)), pc.M, pc.N, r, pc.Sigma)
	ref := core.HQRCP(parallel.Default, a)
	piv := ComparatorTable{
		Title:   fmt.Sprintf("Comparators (§V), pivoted: %d×%d, r = %d, σ = %.0e", pc.M, pc.N, r, pc.Sigma),
		Pivoted: true,
	}
	for _, m := range []method{
		{"Ite-CholQR-CP", func(a *mat.Dense) (*core.CPResult, error) {
			return core.IteCholQRCP(parallel.Default, a, core.DefaultPivotTol, a.Cols)
		}},
		{"Ite-CholQR-CP k=r", func(a *mat.Dense) (*core.CPResult, error) {
			return core.IteCholQRCP(parallel.Default, a, core.DefaultPivotTol, r)
		}},
		{"HQR-CP", func(a *mat.Dense) (*core.CPResult, error) { return core.HQRCP(parallel.Default, a), nil }},
		{"QR+QRCP(TSQR)", func(a *mat.Dense) (*core.CPResult, error) {
			return core.QRThenQRCP(parallel.Default, a, core.Infallible(core.TSQR))
		}},
		{"QR+QRCP(sChQR3)", func(a *mat.Dense) (*core.CPResult, error) {
			return core.QRThenQRCP(parallel.Default, a, core.ShiftedCholQR3)
		}},
		{"CQRRPT", func(a *mat.Dense) (*core.CPResult, error) {
			return core.CQRRPT(parallel.Default, a, core.DefaultPivotTol, uint64(seed))
		}},
		{"StrongRRQR k=r", func(a *mat.Dense) (*core.CPResult, error) {
			return core.StrongRRQR(parallel.Default, a, r, core.DefaultStrongRRQRF)
		}},
	} {
		row, res := measure(m, a, repeats)
		if res != nil {
			row.PivotsAgree = metrics.AllCorrect(res.Perm, ref.Perm, r)
			row.PivotQuality = metrics.PivotQuality(res.R, ref.R, r)
		}
		piv.Rows = append(piv.Rows, row)
	}

	unpiv := ComparatorTable{Title: fmt.Sprintf("Comparators (§V), unpivoted: %d×%d", uc.M, uc.N)}
	for _, kappa := range uc.Kappas {
		a := testmat.GenerateWellConditioned(rand.New(rand.NewSource(seed)), uc.M, uc.N, kappa)
		for _, m := range []method{
			{"CholQR2", unpivoted(core.CholQR2)},
			{"ShiftedCholQR3", unpivoted(core.ShiftedCholQR3)},
			{"TSQR", unpivoted(core.Infallible(core.TSQR))},
			{"HouseholderQR", unpivoted(core.Infallible(core.HouseholderQR))},
		} {
			row, _ := measure(m, a, repeats)
			row.Kappa = kappa
			unpiv.Rows = append(unpiv.Rows, row)
		}
	}
	return []ComparatorTable{piv, unpiv}
}

// measure times the best of repeats runs of m on a and scores the last
// run's factorization, which it returns (nil when m failed).
func measure(m method, a *mat.Dense, repeats int) (ComparatorRow, *core.CPResult) {
	var res *core.CPResult
	var err error
	t := bestOf(repeats, func() { res, err = m.run(a) })
	if err != nil {
		return ComparatorRow{Name: m.name, Time: t, Failed: true}, nil
	}
	return ComparatorRow{
		Name:  m.name,
		Time:  t,
		Orth:  metrics.Orthogonality(res.Q),
		Resid: metrics.Residual(a, res.Q, res.R, res.Perm),
	}, res
}

// PrintComparators writes the §V tables.
func PrintComparators(w io.Writer, tables []ComparatorTable) {
	for i, t := range tables {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, t.Title)
		if t.Pivoted {
			fmt.Fprintf(w, "  %-18s %12s %10s %10s %14s %8s\n", "method", "time", "orth", "resid", "pivots=HQR-CP", "pq")
		} else {
			fmt.Fprintf(w, "  %-6s %-18s %12s %10s %10s\n", "κ₂", "method", "time", "orth", "resid")
		}
		for _, r := range t.Rows {
			if t.Pivoted {
				fmt.Fprintf(w, "  %-18s", r.Name)
			} else {
				fmt.Fprintf(w, "  %-6.0e %-18s", r.Kappa, r.Name)
			}
			if r.Failed {
				fmt.Fprintf(w, " %12v %10s\n", r.Time.Round(time.Microsecond), "FAILED")
				continue
			}
			fmt.Fprintf(w, " %12v %10.1e %10.1e", r.Time.Round(time.Microsecond), r.Orth, r.Resid)
			if t.Pivoted {
				fmt.Fprintf(w, " %14v %8.2f", r.PivotsAgree, r.PivotQuality)
			}
			fmt.Fprintln(w)
		}
	}
}
