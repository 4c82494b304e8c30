package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/metrics"
)

func sampleReport() *metrics.File {
	return &metrics.File{
		Header: metrics.Header{Schema: metrics.SchemaVersion},
		Records: []metrics.Record{
			{Name: "Gram", M: 10000, N: 64, NsPerOp: 5e6, GFLOPS: 16.0},
			{Name: "TrsmRight", M: 10000, N: 64, NsPerOp: 6e6, GFLOPS: 7.0},
			{Name: "IteCholQRCP", M: 10000, N: 64, NsPerOp: 8e7},
			{Name: "IteCholQRCP", Stage: "Gram", M: 10000, N: 64, NsPerOp: 3e7, GFLOPS: 14.0},
			{Name: "IteCholQRCP", Stage: "Swap", M: 10000, N: 64, NsPerOp: 5e5},
			{Name: "QRCPBatch", M: 2500, N: 64, NsPerOp: 4e8, ProblemsPerSec: 80.0},
		},
	}
}

func TestValidateAcceptsGoodReport(t *testing.T) {
	if errs := validate("x.json", sampleReport()); len(errs) != 0 {
		t.Fatalf("unexpected validation errors: %v", errs)
	}
}

func TestValidateCatchesSchemaDrift(t *testing.T) {
	rep := sampleReport()
	rep.Schema = "repro-metrics/0"
	errs := validate("x.json", rep)
	if len(errs) != 1 || !strings.Contains(errs[0], "schema") {
		t.Fatalf("want one schema error, got %v", errs)
	}
}

func TestValidateCatchesBadRows(t *testing.T) {
	rep := sampleReport()
	rep.Records = append(rep.Records,
		metrics.Record{Name: "", M: 1, N: 1, NsPerOp: 1},
		metrics.Record{Name: "Neg", M: 10, N: 5, NsPerOp: -3},
		metrics.Record{Name: "Gram", M: 10000, N: 64, NsPerOp: 5e6}, // duplicate key
	)
	errs := validate("x.json", rep)
	if len(errs) != 3 {
		t.Fatalf("want 3 errors, got %d: %v", len(errs), errs)
	}
}

func TestCompareNoRegression(t *testing.T) {
	base, cand := sampleReport(), sampleReport()
	// 10% slower is inside a 25% tolerance.
	for i := range cand.Records {
		cand.Records[i].GFLOPS *= 0.9
		cand.Records[i].NsPerOp *= 1.1
	}
	regs, compared := compare(base, cand, 0.25)
	if len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
	// Gram, TrsmRight, IteCholQRCP (ns), stage Gram, QRCPBatch — the
	// 0.5 ms Swap row is below the noise floor and must be skipped.
	if compared != 5 {
		t.Fatalf("want 5 compared rows, got %d", compared)
	}
}

// TestCompareFailsOnInjectedSlowdown is the acceptance check for the CI
// gate: a 40% throughput drop on one kernel must be reported.
func TestCompareFailsOnInjectedSlowdown(t *testing.T) {
	base, cand := sampleReport(), sampleReport()
	cand.Records[0].GFLOPS = base.Records[0].GFLOPS * 0.6
	regs, _ := compare(base, cand, 0.25)
	if len(regs) != 1 {
		t.Fatalf("want exactly one regression, got %v", regs)
	}
	if !strings.Contains(regs[0], "Gram m=10000 n=64") {
		t.Errorf("regression message should identify the row: %q", regs[0])
	}
}

func TestCompareFailsOnNsSlowdown(t *testing.T) {
	base, cand := sampleReport(), sampleReport()
	// The end-to-end row has no flop attribution; it gates on ns/op.
	cand.Records[2].NsPerOp = base.Records[2].NsPerOp * 1.5
	regs, _ := compare(base, cand, 0.25)
	if len(regs) != 1 || !strings.Contains(regs[0], "ns/op") {
		t.Fatalf("want one ns/op regression, got %v", regs)
	}
}

func TestCompareIgnoresSubMillisecondNsRows(t *testing.T) {
	base, cand := sampleReport(), sampleReport()
	// Swap is 0.5 ms in the baseline: noise, never gated.
	cand.Records[4].NsPerOp = base.Records[4].NsPerOp * 10
	regs, _ := compare(base, cand, 0.25)
	if len(regs) != 0 {
		t.Fatalf("sub-ms row should be skipped, got %v", regs)
	}
}

func TestCompareTolerance(t *testing.T) {
	base, cand := sampleReport(), sampleReport()
	cand.Records[0].GFLOPS = base.Records[0].GFLOPS * 0.6
	if regs, _ := compare(base, cand, 0.5); len(regs) != 0 {
		t.Fatalf("40%% drop inside 50%% tolerance should pass, got %v", regs)
	}
}

func TestToleranceEnv(t *testing.T) {
	t.Setenv("BENCH_TOLERANCE", "")
	if tol, err := tolerance(); err != nil || tol != 0.25 {
		t.Errorf("default tolerance = %g, %v; want 0.25", tol, err)
	}
	t.Setenv("BENCH_TOLERANCE", "0.4")
	if tol, err := tolerance(); err != nil || tol != 0.4 {
		t.Errorf("tolerance = %g, %v; want 0.4", tol, err)
	}
	for _, bad := range []string{"x", "-1", "0", "1", "2"} {
		t.Setenv("BENCH_TOLERANCE", bad)
		if _, err := tolerance(); err == nil {
			t.Errorf("BENCH_TOLERANCE=%q should be rejected", bad)
		}
	}
}

func TestCompareRequiresOverlap(t *testing.T) {
	base := sampleReport()
	cand := &metrics.File{Header: metrics.Header{Schema: metrics.SchemaVersion}, Records: []metrics.Record{
		{Name: "Other", M: 1, N: 1, NsPerOp: 1, GFLOPS: 1},
	}}
	if _, compared := compare(base, cand, 0.25); compared != 0 {
		t.Fatalf("disjoint reports should compare 0 rows, got %d", compared)
	}
}

// cqrrptReport returns a report satisfying the absolute CQRRPT gates: a
// 2× A/B pair at the reference shape plus in-tolerance parity rows.
func cqrrptReport() *metrics.File {
	return &metrics.File{
		Header: metrics.Header{Schema: metrics.SchemaVersion},
		Records: []metrics.Record{
			{Name: "CQRRPT", M: cqrrptGateM, N: cqrrptGateN, NsPerOp: 4e9},
			{Name: "IteCholQRCP", M: cqrrptGateM, N: cqrrptGateN, NsPerOp: 8e9},
			{Name: "CQRRPTParity", Stage: "orthogonality", M: 20000, N: 64, Value: 5e-15, Unit: "ratio"},
			{Name: "CQRRPTParity", Stage: "residual", M: 20000, N: 64, Value: 3e-16, Unit: "ratio"},
			{Name: "CQRRPTParity", Stage: "pivot_quality", M: 20000, N: 64, Value: 1.8, Unit: "ratio"},
		},
	}
}

func TestValidateAcceptsMetricRows(t *testing.T) {
	if errs := validate("x.json", cqrrptReport()); len(errs) != 0 {
		t.Fatalf("unexpected validation errors: %v", errs)
	}
}

func TestValidateCatchesBadMetricRows(t *testing.T) {
	rep := cqrrptReport()
	rep.Records = append(rep.Records,
		metrics.Record{Name: "CQRRPTParity", Stage: "nan", M: 1, N: 1, Value: math.NaN(), Unit: "ratio"},
		metrics.Record{Name: "CQRRPTParity", Stage: "neg", M: 1, N: 1, Value: -1, Unit: "ratio"},
	)
	if errs := validate("x.json", rep); len(errs) != 2 {
		t.Fatalf("want 2 metric-row errors, got %v", errs)
	}
}

func TestCQRRPTGatesPass(t *testing.T) {
	if errs := cqrrptGates("x.json", cqrrptReport()); len(errs) != 0 {
		t.Fatalf("unexpected gate failures: %v", errs)
	}
}

func TestCQRRPTGatesSpeedup(t *testing.T) {
	rep := cqrrptReport()
	rep.Records[1].NsPerOp = rep.Records[0].NsPerOp * 1.1 // 1.1x < 1.3x
	errs := cqrrptGates("x.json", rep)
	if len(errs) != 1 || !strings.Contains(errs[0], "speedup") {
		t.Fatalf("want one speedup failure, got %v", errs)
	}
}

func TestCQRRPTGatesParityBreach(t *testing.T) {
	rep := cqrrptReport()
	rep.Records[2].Value = 1e-9 // orthogonality above CQRRPTOrthTol
	errs := cqrrptGates("x.json", rep)
	if len(errs) != 1 || !strings.Contains(errs[0], "orthogonality") {
		t.Fatalf("want one parity failure, got %v", errs)
	}
}

func TestCQRRPTGatesMissingRows(t *testing.T) {
	errs := cqrrptGates("x.json", sampleReport())
	if len(errs) != 2 {
		t.Fatalf("report without CQRRPT rows must fail both gates, got %v", errs)
	}
	for _, e := range errs {
		if !strings.Contains(e, "missing") {
			t.Fatalf("want missing-row failures, got %v", errs)
		}
	}
}

// serviceReport returns a report satisfying the absolute service gate:
// a ServiceQRCP throughput row over the jobs/sec floor at the gate shape
// with coherent latency quantile rows attached.
func serviceReport() *metrics.File {
	return &metrics.File{
		Header: metrics.Header{Schema: metrics.SchemaVersion},
		Records: []metrics.Record{
			{Name: "ServiceQRCP", M: serviceGateM, N: serviceGateN, Iters: 400,
				NsPerOp: 2e7, ProblemsPerSec: 150.0},
			{Name: "ServiceQRCP", Stage: "latency_p50", M: serviceGateM, N: serviceGateN,
				Iters: 400, NsPerOp: 1.5e7},
			{Name: "ServiceQRCP", Stage: "latency_p99", M: serviceGateM, N: serviceGateN,
				Iters: 400, NsPerOp: 9e7},
		},
	}
}

func TestServiceGatesPass(t *testing.T) {
	if errs := validate("x.json", serviceReport()); len(errs) != 0 {
		t.Fatalf("unexpected validation errors: %v", errs)
	}
	if errs := serviceGates("x.json", serviceReport()); len(errs) != 0 {
		t.Fatalf("unexpected gate failures: %v", errs)
	}
}

func TestServiceGatesThroughputFloor(t *testing.T) {
	rep := serviceReport()
	rep.Records[0].ProblemsPerSec = serviceMinJobsPerSec * 0.5
	errs := serviceGates("x.json", rep)
	if len(errs) != 1 || !strings.Contains(errs[0], "jobs/s") {
		t.Fatalf("want one jobs/s floor failure, got %v", errs)
	}
}

func TestServiceGatesMissingRows(t *testing.T) {
	errs := serviceGates("x.json", sampleReport())
	if len(errs) != 2 {
		t.Fatalf("report without ServiceQRCP rows must fail both checks, got %v", errs)
	}
	for _, e := range errs {
		if !strings.Contains(e, "missing") {
			t.Fatalf("want missing-row failures, got %v", errs)
		}
	}
	// The throughput row alone — jobs/sec without its latency
	// distribution — is not admissible either.
	rep := serviceReport()
	rep.Records = rep.Records[:1]
	errs = serviceGates("x.json", rep)
	if len(errs) != 1 || !strings.Contains(errs[0], "latency_p50") {
		t.Fatalf("want one missing-latency failure, got %v", errs)
	}
}

func TestServiceGatesIncoherentQuantiles(t *testing.T) {
	rep := serviceReport()
	rep.Records[1].NsPerOp = rep.Records[2].NsPerOp * 2 // p50 > p99
	errs := serviceGates("x.json", rep)
	if len(errs) != 1 || !strings.Contains(errs[0], "incoherent") {
		t.Fatalf("want one incoherent-quantile failure, got %v", errs)
	}
}

func TestCompareGatesBatchThroughput(t *testing.T) {
	base, cand := sampleReport(), sampleReport()
	for i := range cand.Records {
		if cand.Records[i].Name == "QRCPBatch" {
			cand.Records[i].ProblemsPerSec *= 0.5 // -50% throughput
		}
	}
	regs, _ := compare(base, cand, 0.25)
	if len(regs) != 1 || !strings.Contains(regs[0], "problems/s") {
		t.Fatalf("want one problems/s regression, got %v", regs)
	}
}

func coverageReport() *metrics.File {
	return &metrics.File{
		Header: metrics.Header{Schema: metrics.SchemaVersion},
		Records: []metrics.Record{
			{Name: "IteCholQRCP", Stage: "Gram", M: 4000, N: 64, NsPerOp: 3e6},
			{Name: "IteCholQRCP", Stage: "Fused", M: 4000, N: 64, NsPerOp: 6.5e6},
			{Name: "IteCholQRCP", Stage: "Total", M: 4000, N: 64, NsPerOp: 1e7},
			{Name: "CQRRPT", Stage: "Sketch", M: 20000, N: 64, NsPerOp: 9e6},
			{Name: "CQRRPT", Stage: "Precond", M: 20000, N: 64, NsPerOp: 9e6},
			{Name: "CQRRPT", Stage: "TRSM", M: 20000, N: 64, NsPerOp: 4e6},
			{Name: "CQRRPT", Stage: "Total", M: 20000, N: 64, NsPerOp: 2.4e7},
			// Metric rows and other algorithms are outside the gate.
			{Name: "CQRRPTParity", Stage: "orthogonality", M: 20000, N: 64, Value: 1e-15, Unit: "ratio"},
			{Name: "OOCQRCP", Stage: "Total", M: 200000, N: 64, NsPerOp: 1e9},
		},
	}
}

func TestCoverageGatesPass(t *testing.T) {
	if errs := coverageGates("x.json", coverageReport()); len(errs) != 0 {
		t.Fatalf("unexpected coverage violations: %v", errs)
	}
}

// TestCoverageGatesFailsUnattributed drops the CQRRPT TRSM row, leaving
// 75% of its Total covered, and zeroes a Total, which covers nothing.
func TestCoverageGatesFailsUnattributed(t *testing.T) {
	rep := coverageReport()
	rep.Records = append(rep.Records[:5], rep.Records[6:]...)
	rep.Records = append(rep.Records, metrics.Record{Name: "IteCholQRCP", Stage: "Total", M: 100, N: 8})
	errs := coverageGates("x.json", rep)
	if len(errs) != 2 || !strings.Contains(errs[0], "CQRRPT m=20000 n=64: stage rows cover 75.0%") ||
		!strings.Contains(errs[1], "IteCholQRCP m=100 n=8") {
		t.Fatalf("want the CQRRPT and empty-Total violations, got %v", errs)
	}
}

func tailReport() *metrics.File {
	return &metrics.File{
		Header: metrics.Header{Schema: metrics.SchemaVersion},
		Records: []metrics.Record{
			{Name: "IteCholQRCP", Stage: "Gram", M: 4000, N: 256, NsPerOp: 1.6e7},
			{Name: "IteCholQRCP", Stage: "CholCP", M: 4000, N: 256, NsPerOp: 3.6e6},
			{Name: "IteCholQRCP", Stage: "Trmm", M: 4000, N: 256, NsPerOp: 2.7e6},
			{Name: "IteCholQRCP", Stage: "Total", M: 4000, N: 256, NsPerOp: 6.8e7},
			{Name: "IteCholQRCP", Stage: "CholCP", M: 10000, N: 256, NsPerOp: 3.5e6},
			{Name: "IteCholQRCP", Stage: "Trmm", M: 10000, N: 256, NsPerOp: 2.4e6},
			{Name: "IteCholQRCP", Stage: "Total", M: 10000, N: 256, NsPerOp: 9.2e7},
			// Other widths and algorithms are outside the gate.
			{Name: "IteCholQRCP", Stage: "CholCP", M: 10000, N: 64, NsPerOp: 9e6},
			{Name: "IteCholQRCP", Stage: "Total", M: 10000, N: 64, NsPerOp: 1e7},
			{Name: "CQRRPT", Stage: "CholCP", M: 10000, N: 256, NsPerOp: 9e7},
			{Name: "CQRRPT", Stage: "Total", M: 10000, N: 256, NsPerOp: 1e8},
		},
	}
}

func TestTailGatesPass(t *testing.T) {
	if errs := tailGates("x.json", tailReport()); len(errs) != 0 {
		t.Fatalf("unexpected tail-share violations: %v", errs)
	}
}

// TestTailGatesFailsScalarTail restores the scalar loops' stage rows at
// 10000×256 (37.6% of Total) and zeroes the 4000×256 Total.
func TestTailGatesFailsScalarTail(t *testing.T) {
	rep := tailReport()
	rep.Records[4].NsPerOp, rep.Records[5].NsPerOp, rep.Records[6].NsPerOp = 1.63e7, 3.66e7, 1.406e8
	rep.Records[3].NsPerOp = 0
	errs := tailGates("x.json", rep)
	if len(errs) != 2 || !strings.Contains(errs[0], "m=4000 n=256") ||
		!strings.Contains(errs[1], "m=10000 n=256: CholCP + Trmm take 37.6% of Total") {
		t.Fatalf("want the 4000×256 and 10000×256 violations, got %v", errs)
	}
}

// TestCommittedBaselineSelfCheck decodes the committed baseline into the
// shared row type, refusing any field it does not declare, and gates it
// against itself the way bench-check -baseline X -candidate X does.
func TestCommittedBaselineSelfCheck(t *testing.T) {
	const path = "../../BENCH_kernels.json"
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	var rep metrics.File
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("%s does not decode into metrics.File: %v", path, err)
	}
	errs := validate(path, &rep)
	for _, gate := range []func(string, *metrics.File) []string{cqrrptGates, serviceGates, tailGates, oocGates, coverageGates} {
		errs = append(errs, gate(path, &rep)...)
	}
	if len(errs) != 0 {
		t.Fatalf("baseline fails its own checks: %v", errs)
	}
	if regs, compared := compare(&rep, &rep, 0.25); len(regs) != 0 || compared == 0 {
		t.Fatalf("baseline against itself: %d rows compared, regressions %v", compared, regs)
	}
}
