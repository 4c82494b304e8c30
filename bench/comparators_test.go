package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/metrics"
)

// TestComparators: both §V tables, at a small size, hold the accuracy
// contract. Every row that succeeds is at O(u); only CholQR2 may fail,
// and only where κ₂ is past its u^(−1/2) breakdown; every greedy method
// picks HQR-CP's pivots, and CQRRPT's sketched pivots pass the CQRRPT
// parity gate.
func TestComparators(t *testing.T) {
	kappas := []float64{1e2, 1e6, 1e10, 1e14}
	tables := Comparators(9, PivotedCase{M: 1500, N: 20, R: 16, Sigma: 1e-8},
		UnpivotedCase{M: 1500, N: 20, Kappas: kappas}, 1)
	if len(tables) != 2 || !tables[0].Pivoted || tables[1].Pivoted {
		t.Fatalf("want the pivoted then the unpivoted table, got %d tables", len(tables))
	}
	if got, want := len(tables[0].Rows), 7; got != want {
		t.Fatalf("pivoted table: %d rows, want %d", got, want)
	}
	if got, want := len(tables[1].Rows), 4*len(kappas); got != want {
		t.Fatalf("unpivoted table: %d rows, want %d", got, want)
	}
	greedy := map[string]bool{
		"Ite-CholQR-CP": true, "Ite-CholQR-CP k=r": true, "HQR-CP": true,
		"QR+QRCP(TSQR)": true, "QR+QRCP(sChQR3)": true, "StrongRRQR k=r": true,
	}
	for _, tab := range tables {
		for _, r := range tab.Rows {
			if r.Failed {
				if r.Name != "CholQR2" || r.Kappa < 1e10 {
					t.Errorf("%s (κ₂ %g) failed", r.Name, r.Kappa)
				}
				continue
			}
			if r.Orth > 1e-12 || r.Resid > 1e-12 {
				t.Errorf("%s (κ₂ %g): orth=%g resid=%g", r.Name, r.Kappa, r.Orth, r.Resid)
			}
			if !tab.Pivoted {
				continue
			}
			if greedy[r.Name] && !r.PivotsAgree {
				t.Errorf("%s: pivots disagree with HQR-CP", r.Name)
			}
			if r.Name == "CQRRPT" && !(r.PivotQuality <= metrics.CQRRPTPivotTol) {
				t.Errorf("CQRRPT: pivot quality %g above the gate %g", r.PivotQuality, metrics.CQRRPTPivotTol)
			}
		}
	}
	var buf bytes.Buffer
	PrintComparators(&buf, tables)
	for _, want := range []string{"pivots=HQR-CP", "unpivoted", "CQRRPT", "StrongRRQR", "ShiftedCholQR3"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("printer output lacks %q", want)
		}
	}
}
