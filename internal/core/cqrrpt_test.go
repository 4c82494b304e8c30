package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/mat"
	"repro/testmat"
)

func TestCQRRPTWellConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	a := testmat.GenerateWellConditioned(rng, 500, 20, 100)
	res, err := CQRRPT(parallel.Default, a, DefaultPivotTol, 42)
	if err != nil {
		t.Fatal(err)
	}
	checkCP(t, "cqrrpt", a, res, 1e-14, 1e-13)
	if res.Iterations != 1 {
		t.Fatalf("passes = %d, want 1 for κ=100", res.Iterations)
	}
}

// TestCQRRPTAcrossConditioning sweeps the σ-tail generator across the
// full conditioning range of the evaluation. The factorization contract
// must hold everywhere, and the pivots — although generally different
// from Householder QRCP's greedy choice, since they maximize sketched
// norms — must reveal the same rank profile: the leading diagonal of R
// may not fall more than a small factor below the Geqp3 reference.
func TestCQRRPTAcrossConditioning(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	m, n := 3000, 32
	r := (n * 4) / 5
	for _, sigma := range []float64{1e-2, 1e-6, 1e-10, 1e-12, 1e-14} {
		a := testmat.Generate(rng, m, n, r, sigma)
		res, err := CQRRPT(parallel.Default, a, DefaultPivotTol, 7)
		if err != nil {
			t.Fatalf("σ=%g: %v", sigma, err)
		}
		checkCP(t, "cqrrpt", a, res, 1e-13, 1e-13)
		ref := HQRCP(parallel.Default, a)
		for i := 0; i < r; i++ {
			got := math.Abs(res.R.At(i, i))
			want := math.Abs(ref.R.At(i, i))
			if got < want/8 {
				t.Fatalf("σ=%g: |R[%d,%d]| = %g under-reveals the reference %g by more than 8×",
					sigma, i, i, got, want)
			}
		}
	}
}

// TestCQRRPTDeterministicAcrossWidths is the acceptance criterion of the
// randomized path: for a fixed seed the whole pipeline — sketch, pivoted
// QR of the sketch, fused preconditioner pass, CholQR — must produce
// bit-identical Q, R, and P on engines of every width.
func TestCQRRPTDeterministicAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	// n ≥ 128 puts more than one 64-column panel into every Cholesky,
	// whose trailing SYRK must reduce width-independently too. At n = 256
	// the 512-row sketch spans several Geqp3 panels, whose Aᵀ·x
	// column updates must reduce width-independently as well.
	for _, sh := range []struct{ m, n, rank int }{{20000, 24, 19}, {6000, 128, 102}, {6000, 160, 128}, {6000, 256, 205}} {
		a := testmat.Generate(rng, sh.m, sh.n, sh.rank, 1e-10)
		var ref *CPResult
		for _, w := range []int{1, 2, 8} {
			e := parallel.NewEngine(w)
			res, err := CQRRPT(e, a, DefaultPivotTol, 12345)
			if err != nil {
				t.Fatalf("%dx%d width %d: %v", sh.m, sh.n, w, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			requireSameCP(t, fmt.Sprintf("%dx%d width %d", sh.m, sh.n, w), res, ref)
		}
	}
}

// requireSameCP fails unless got and want carry the same pivots and
// bit-identical Q and R.
func requireSameCP(t *testing.T, label string, got, want *CPResult) {
	t.Helper()
	if !permEqual(got.Perm, want.Perm) {
		t.Fatalf("%s: permutation differs:\n got %v\n ref %v", label, got.Perm, want.Perm)
	}
	for _, f := range []struct {
		name      string
		got, want *mat.Dense
	}{{"Q", got.Q, want.Q}, {"R", got.R, want.R}} {
		for i := range f.got.Data {
			if math.Float64bits(f.got.Data[i]) != math.Float64bits(f.want.Data[i]) {
				t.Fatalf("%s: %s differs at flat index %d", label, f.name, i)
			}
		}
	}
}

// TestCQRRPTSeedSensitivity pins the seed semantics: a different seed may
// legitimately choose different pivots, but every seed must satisfy the
// factorization contract, and the same seed must reproduce itself.
func TestCQRRPTSeedSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	a := testmat.Generate(rng, 2500, 24, 19, 1e-8)
	for _, seed := range []uint64{0, 1, 0xdeadbeef} {
		res, err := CQRRPT(parallel.Default, a, DefaultPivotTol, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkCP(t, "cqrrpt", a, res, 1e-13, 1e-13)
	}
	r1, err1 := CQRRPT(parallel.Default, a, DefaultPivotTol, 9)
	r2, err2 := CQRRPT(parallel.Default, a, DefaultPivotTol, 9)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range r1.Q.Data {
		if math.Float64bits(r1.Q.Data[i]) != math.Float64bits(r2.Q.Data[i]) {
			t.Fatal("same seed, same input: Q not reproduced bit-identically")
		}
	}
}

// TestCQRRPTExactRankDeficientFallsBack: a zero input makes the sketch
// exactly singular (κ̂ = +Inf), so the condition guard must reject it
// (counted once on CtrSketchFallbacks) and the iterated fallback path
// then returns its rank, 0.
func TestCQRRPTExactRankDeficientFallsBack(t *testing.T) {
	a := mat.NewDense(300, 4)
	trace.Reset()
	trace.Enable()
	res, err := CQRRPT(parallel.Default, a, DefaultPivotTol, 3)
	trace.Disable()
	if err != nil || res.Rank != 0 {
		t.Fatalf("err = %v, want rank 0 from the iterated fallback", err)
	}
	rep := trace.Snapshot()
	if got := rep.Counters[trace.CtrSketchFallbacks.String()]; got != 1 {
		t.Fatalf("sketch_fallbacks = %d, want 1 (the sparse sketch's rejection)", got)
	}
	trace.Reset()
}

// TestCQRRPTDoesNotModifyInput: the sketch, the preconditioning pass
// and the iterated fallback all read A in place, and none may write it —
// on the sparse path, the reorthogonalized attempt and the fallback a
// sketch-rejected input takes, for a compact matrix and a strided view.
func TestCQRRPTDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	// graded has columns scaled from 1 down to 1e-30 and then mixed: its
	// sketch fails the condition guard, the iterated path factors it.
	graded := mat.NewDense(400, 6)
	for i := 0; i < graded.Rows; i++ {
		for j := 0; j < graded.Cols; j++ {
			graded.Set(i, j, math.Pow(10, -6*float64(j))*rng.NormFloat64())
		}
	}
	for j := 1; j < graded.Cols; j++ {
		for i := 0; i < graded.Rows; i++ {
			graded.Set(i, j, graded.At(i, j)+0.5*graded.At(i, j-1))
		}
	}
	big := testmat.Generate(rng, 302, 17, 12, 1e-8)
	for _, a := range []*mat.Dense{testmat.Generate(rng, 300, 12, 10, 1e-6), big.Slice(1, 301, 2, 14)} {
		for _, tc := range []struct {
			name      string
			a         *mat.Dense
			fallbacks int64
			run       func(a *mat.Dense) (*CPResult, error)
		}{
			{"sparse", a, 0, func(a *mat.Dense) (*CPResult, error) { return CQRRPT(parallel.Default, a, DefaultPivotTol, 1) }},
			{"reorthogonalized", a, 0, func(a *mat.Dense) (*CPResult, error) {
				return cqrrptAttempt(parallel.NewEngine(2), a, 1, 0)
			}},
			{"fallback", graded, 1, func(a *mat.Dense) (*CPResult, error) { return CQRRPT(parallel.Default, a, DefaultPivotTol, 1) }},
		} {
			orig := tc.a.Clone()
			trace.Reset()
			trace.Enable()
			res, err := tc.run(tc.a)
			trace.Disable()
			fallbacks := trace.Snapshot().Counters[trace.CtrSketchFallbacks.String()]
			trace.Reset()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if fallbacks != tc.fallbacks {
				t.Fatalf("%s: %d sketch fallbacks, want %d", tc.name, fallbacks, tc.fallbacks)
			}
			if res.Q == tc.a || !mat.EqualApprox(tc.a, orig, 0) {
				t.Fatalf("%s: input modified", tc.name)
			}
		}
	}
}

func TestCQRRPTAttemptRejectsSingularSketch(t *testing.T) {
	a := mat.NewDense(200, 3)
	for i := 0; i < a.Rows; i++ {
		a.Set(i, 0, float64(i+1))
		a.Set(i, 1, 2*float64(i+1))
		a.Set(i, 2, -float64(i+1))
	}
	_, err := cqrrptAttempt(parallel.Default, a, 1, CQRRPTReorthCond)
	if !errors.Is(err, errSketchRejected) {
		t.Fatalf("err = %v, want errSketchRejected", err)
	}
}

// TestCQRRPTRejectedSketchIsIteCholQRCP: a full-rank input whose sketch
// is rejected gets exactly the iterated path's factorization. The 200×4
// matrix has one nonzero per column, so column j of its d = 8 sketch is
// a scaled column of S; at seed 0 two of those are parallel and the
// condition guard rejects the sketch, although A itself is orthogonal.
func TestCQRRPTRejectedSketchIsIteCholQRCP(t *testing.T) {
	a := mat.NewDense(200, 4)
	for j, i := range []int{95, 156, 135, 94} {
		a.Set(i, j, float64(j+1))
	}
	trace.Reset()
	trace.Enable()
	res, err := CQRRPT(parallel.Default, a, DefaultPivotTol, 0)
	trace.Disable()
	fallbacks := trace.Snapshot().Counters[trace.CtrSketchFallbacks.String()]
	trace.Reset()
	if err != nil {
		t.Fatal(err)
	}
	if fallbacks != 1 {
		t.Fatalf("%d sketch fallbacks, want 1", fallbacks)
	}
	ref, err := IteCholQRCP(parallel.Default, a, DefaultPivotTol, a.Cols)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rank != ref.Rank || res.Iterations != ref.Iterations {
		t.Fatalf("rank %d in %d iterations, IteCholQRCP gives rank %d in %d",
			res.Rank, res.Iterations, ref.Rank, ref.Iterations)
	}
	requireSameCP(t, "rejected sketch", res, ref)
}

// TestCQRRPTReorthogonalization forces the marginal-preconditioner branch
// (reorthCond = 0 makes any condition estimate "marginal"): the second
// CholQR pass must report two passes, meet the same accuracy contract,
// and — because it runs through the fused width-invariant kernels — stay
// bit-identical across engine widths.
func TestCQRRPTReorthogonalization(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	a := testmat.Generate(rng, 5000, 24, 19, 1e-10)
	var ref *CPResult
	for _, w := range []int{1, 8} {
		res, err := cqrrptAttempt(parallel.NewEngine(w), a, 21, 0)
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		if res.Iterations != 2 {
			t.Fatalf("width %d: passes = %d, want 2 with reorthCond 0", w, res.Iterations)
		}
		checkCP(t, "cqrrpt-reorth", a, res, 1e-14, 1e-13)
		if ref == nil {
			ref = res
			continue
		}
		for i := range res.Q.Data {
			if math.Float64bits(res.Q.Data[i]) != math.Float64bits(ref.Q.Data[i]) {
				t.Fatalf("width %d: reorthogonalized Q differs from width 1 at flat index %d", w, i)
			}
		}
		for i := range res.R.Data {
			if math.Float64bits(res.R.Data[i]) != math.Float64bits(ref.R.Data[i]) {
				t.Fatalf("width %d: reorthogonalized R differs from width 1 at flat index %d", w, i)
			}
		}
	}
}

func TestCQRRPTCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(306))
	a := testmat.GenerateWellConditioned(rng, 400, 8, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := parallel.NewEngine(2).WithContext(ctx)
	if _, err := CQRRPT(e, a, DefaultPivotTol, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCQRRPTWideInputPanics(t *testing.T) {
	mustPanicC(t, func() { CQRRPT(parallel.Default, mat.NewDense(3, 5), DefaultPivotTol, 0) })
}

// TestCQRRPTStageKernelFlopAttributionReconciles extends the trace
// contract to the randomized path: StageSketch mirrors the sketch and
// geqp3 kernels it wraps, StagePrecond mirrors the fused kernel, and the
// stage/kernel flop totals agree exactly.
func TestCQRRPTStageKernelFlopAttributionReconciles(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	a := testmat.Generate(rng, 900, 28, 28, 1e-9)
	trace.Reset()
	trace.Enable()
	_, err := CQRRPT(parallel.Default, a, DefaultPivotTol, 5)
	trace.Disable()
	if err != nil {
		t.Fatal(err)
	}
	rep := trace.Snapshot()
	var stageFlops, kernelFlops, stageNs, kernelNs int64
	byName := map[string]int64{}
	byNameNs := map[string]int64{}
	for _, row := range rep.Stages {
		byName[row.Stage] = row.Flops
		byNameNs[row.Stage] = row.TotalNs
		if row.Stage == trace.StageTotal.String() {
			continue
		}
		if row.Kernel {
			kernelFlops += row.Flops
			kernelNs += row.TotalNs
		} else {
			stageFlops += row.Flops
			stageNs += row.TotalNs
		}
	}
	// Geqp3 nests Gemm kernel spans inside its own kernel attribution (its
	// 4mnk−2(m+n)k²+4k³/3 row already includes the blocked trailing
	// updates), so the nested gemm row is double-counted on the kernel
	// side; every gemm in this pipeline comes from inside Geqp3.
	if nested := byName[trace.KernelGemm.String()]; stageFlops != kernelFlops-nested {
		t.Fatalf("stage flops %d != kernel flops %d − nested gemm %d", stageFlops, kernelFlops, nested)
	}
	sketchStage := byName[trace.StageSketch.String()]
	wantSketch := byName[trace.KernelSketch.String()] + byName[trace.KernelGeqp3.String()]
	if sketchStage == 0 || sketchStage != wantSketch {
		t.Fatalf("StageSketch flops %d != KernelSketch+KernelGeqp3 flops %d", sketchStage, wantSketch)
	}
	precond := byName[trace.StagePrecond.String()]
	if precond == 0 || precond != byName[trace.KernelFusedTrsmGram.String()] {
		t.Fatalf("StagePrecond flops %d != KernelFusedTrsmGram flops %d",
			precond, byName[trace.KernelFusedTrsmGram.String()])
	}
	// The nested gemm spans double-attribute their wall time too, so the
	// nesting bound holds only after removing that row.
	if adj := kernelNs - byNameNs[trace.KernelGemm.String()]; adj > stageNs {
		t.Fatalf("kernel time %d ns (gemm-adjusted) exceeds enclosing stage time %d ns", adj, stageNs)
	}
	trace.Reset()
}
