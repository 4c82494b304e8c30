package dist

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/mat"
	"repro/metrics"
	"repro/testmat"
)

// scatter splits a into the block-row pieces of the layout.
func scatter(a *mat.Dense, l Layout) []*mat.Dense {
	out := make([]*mat.Dense, l.P)
	for r := 0; r < l.P; r++ {
		lo, hi := l.RowRange(r)
		out[r] = a.RowSlice(lo, hi).Clone()
	}
	return out
}

// gather stitches per-rank row blocks back into one matrix.
func gather(blocks []*mat.Dense, l Layout) *mat.Dense {
	g := mat.NewDense(l.M, blocks[0].Cols)
	for r := 0; r < l.P; r++ {
		lo, hi := l.RowRange(r)
		g.Slice(lo, hi, 0, g.Cols).Copy(blocks[r])
	}
	return g
}

func TestDistIteCholQRCPMatchesSerialPivots(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	m, n, r := 400, 20, 16
	a := testmat.Generate(rng, m, n, r, 1e-10)
	serialRes, err := core.IteCholQRCP(parallel.Default, a, core.DefaultPivotTol, a.Cols)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 8} {
		l := Layout{M: m, P: p}
		blocks := scatter(a, l)
		results := make([]*QRCPResult, p)
		width := max(1, runtime.GOMAXPROCS(0)/p)
		Run(p, func(c Comm) {
			if got := c.Engine().Workers(); got != width {
				t.Errorf("p=%d rank %d: engine width %d, want max(1, W/P) = %d", p, c.Rank(), got, width)
			}
			res, err := IteCholQRCP(c, blocks[c.Rank()], core.DefaultPivotTol)
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			results[c.Rank()] = res
		})
		// The rank width never moves a bit: every rank on one core, or
		// on four, reproduces the run above.
		for _, w := range []int{1, 4} {
			again := make([]*QRCPResult, p)
			Run(p, func(c Comm) {
				res, err := IteCholQRCP(widthComm{c, parallel.NewEngine(w)}, blocks[c.Rank()], core.DefaultPivotTol)
				if err != nil {
					t.Errorf("rank %d width %d: %v", c.Rank(), w, err)
					return
				}
				again[c.Rank()] = res
			})
			for rk, res := range again {
				want := results[rk]
				requireSameFactors(t, fmt.Sprintf("p=%d rank %d width %d", p, rk, w),
					res.QLocal, res.R, res.Perm, want.QLocal, want.R, want.Perm)
			}
		}
		// Pivots must agree across ranks and with the serial essential ones.
		for rk := 1; rk < p; rk++ {
			for j := range results[0].Perm {
				if results[rk].Perm[j] != results[0].Perm[j] {
					t.Fatalf("p=%d: perm differs between ranks", p)
				}
			}
		}
		if !metrics.AllCorrect(results[0].Perm, serialRes.Perm, r) {
			t.Fatalf("p=%d: distributed pivots differ from serial in the essential block:\n dist %v\n ser  %v",
				p, results[0].Perm[:r], serialRes.Perm[:r])
		}
		// Factorization quality on the gathered Q.
		qblocks := make([]*mat.Dense, p)
		for rk := 0; rk < p; rk++ {
			qblocks[rk] = results[rk].QLocal
		}
		q := gather(qblocks, l)
		if e := metrics.Orthogonality(q); e > 1e-13 {
			t.Fatalf("p=%d: orthogonality %g", p, e)
		}
		if res := metrics.Residual(a, q, results[0].R, results[0].Perm); res > 1e-12 {
			t.Fatalf("p=%d: residual %g", p, res)
		}
		if results[0].Iterations != serialRes.Iterations {
			t.Fatalf("p=%d: iterations %d != serial %d", p, results[0].Iterations, serialRes.Iterations)
		}
		// One rank runs the in-core sweeps on the whole matrix.
		if p == 1 {
			requireSameFactors(t, "p=1", q, results[0].R, results[0].Perm, serialRes.Q, serialRes.R, serialRes.Perm)
		}
	}
}

// widthComm runs a rank on an engine of a chosen width.
type widthComm struct {
	Comm
	e *parallel.Engine
}

func (c widthComm) Engine() *parallel.Engine { return c.e }

// requireSameFactors fails unless the two factorizations carry the same
// pivots and bit-identical Q and R.
func requireSameFactors(t *testing.T, label string, q, r *mat.Dense, perm mat.Perm, wantQ, wantR *mat.Dense, wantPerm mat.Perm) {
	t.Helper()
	if len(perm) != len(wantPerm) {
		t.Fatalf("%s: %d pivots, want %d", label, len(perm), len(wantPerm))
	}
	for j := range perm {
		if perm[j] != wantPerm[j] {
			t.Fatalf("%s: perm %v, want %v", label, perm, wantPerm)
		}
	}
	if !mat.EqualApprox(q, wantQ, 0) || !mat.EqualApprox(r, wantR, 0) {
		t.Fatalf("%s: Q or R not bit-identical", label)
	}
}

func TestDistHQRCPMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	m, n, rk := 300, 18, 14
	a := testmat.Generate(rng, m, n, rk, 1e-8)
	serial := core.HQRCP(parallel.Default, a)
	for _, p := range []int{1, 3, 5} {
		l := Layout{M: m, P: p}
		blocks := scatter(a, l)
		results := make([]*QRCPResult, p)
		Run(p, func(c Comm) {
			results[c.Rank()] = HQRCP(c, blocks[c.Rank()], l, true)
		})
		// Pivots must match the serial HQR-CP in the essential block.
		if !metrics.AllCorrect(results[0].Perm, serial.Perm, rk) {
			t.Fatalf("p=%d: pivots differ from serial HQR-CP:\n dist %v\n ser  %v",
				p, results[0].Perm[:rk], serial.Perm[:rk])
		}
		qblocks := make([]*mat.Dense, p)
		for r := 0; r < p; r++ {
			qblocks[r] = results[r].QLocal
		}
		q := gather(qblocks, l)
		if e := metrics.Orthogonality(q); e > 1e-12 {
			t.Fatalf("p=%d: orthogonality %g", p, e)
		}
		if res := metrics.Residual(a, q, results[0].R, results[0].Perm); res > 1e-12 {
			t.Fatalf("p=%d: residual %g", p, res)
		}
	}
}

func TestDistHQRCPNoQ(t *testing.T) {
	rng := rand.New(rand.NewSource(134))
	m, n := 120, 10
	a := testmat.GenerateWellConditioned(rng, m, n, 1e4)
	l := Layout{M: m, P: 4}
	blocks := scatter(a, l)
	results := make([]*QRCPResult, 4)
	Run(4, func(c Comm) {
		results[c.Rank()] = HQRCP(c, blocks[c.Rank()], l, false)
	})
	if results[0].QLocal != nil {
		t.Fatal("formQ=false must not build Q")
	}
	serial := core.HQRCP(parallel.Default, a)
	for j := range serial.Perm {
		if results[0].Perm[j] != serial.Perm[j] {
			t.Fatalf("pivots differ at %d", j)
		}
	}
	if !mat.EqualApprox(results[0].R, serial.R, 1e-10*serial.R.MaxAbs()) {
		t.Fatal("R differs from serial")
	}
}

// TestDistUnevenRows: layouts whose rank blocks are uneven (m not a
// multiple of P) or shorter than n (30×12 at P = 3, ten rows a rank)
// factor like the in-core routines through every entry point: the same
// pivots, Q orthonormal, and R reproducing A·P.
func TestDistUnevenRows(t *testing.T) {
	rng := rand.New(rand.NewSource(135))
	for _, tc := range []struct{ m, n, p int }{{101, 7, 4}, {30, 12, 3}} {
		a := testmat.GenerateWellConditioned(rng, tc.m, tc.n, 50)
		l := Layout{M: tc.m, P: tc.p}
		ite, err := core.IteCholQRCP(parallel.Default, a, core.DefaultPivotTol, a.Cols)
		if err != nil {
			t.Fatal(err)
		}
		for _, ep := range []struct {
			name string
			run  func(c Comm, aLocal *mat.Dense) (*QRCPResult, error)
			want *core.CPResult
		}{
			{"IteCholQRCP", func(c Comm, b *mat.Dense) (*QRCPResult, error) {
				return IteCholQRCP(c, b, core.DefaultPivotTol)
			}, ite},
			{"HQRCP", func(c Comm, b *mat.Dense) (*QRCPResult, error) {
				return HQRCP(c, b, l, true), nil
			}, core.HQRCP(parallel.Default, a)},
		} {
			label := fmt.Sprintf("%s %d×%d P=%d", ep.name, tc.m, tc.n, tc.p)
			blocks := scatter(a, l)
			results := make([]*QRCPResult, tc.p)
			Run(tc.p, func(c Comm) {
				res, err := ep.run(c, blocks[c.Rank()])
				if err != nil {
					t.Errorf("%s rank %d: %v", label, c.Rank(), err)
					return
				}
				results[c.Rank()] = res
			})
			qblocks := make([]*mat.Dense, tc.p)
			for r, res := range results {
				if res == nil {
					t.FailNow()
				}
				qblocks[r] = res.QLocal
			}
			got := results[0]
			if !metrics.AllCorrect(got.Perm, ep.want.Perm, got.Rank) {
				t.Fatalf("%s: pivots differ from in-core:\n dist %v\n core %v", label, got.Perm, ep.want.Perm)
			}
			q := gather(qblocks, l)
			if e := metrics.Orthogonality(q); e > 1e-12 {
				t.Fatalf("%s: orthogonality %g", label, e)
			}
			if res := metrics.Residual(a, q, got.R, got.Perm); res > 1e-12 {
				t.Fatalf("%s: residual %g", label, res)
			}
		}
	}
}

func TestDistCollectiveCounts(t *testing.T) {
	// The CA property: Ite-CholQR-CP needs exactly one n×n Gram
	// Allreduce per Gram — the first plus one per pivoting iteration,
	// the last of which is the reorthogonalization Gram — independent
	// of n, HQR-CP needs Ω(n). The distributed run takes the in-core
	// fused permute→TRSM→Gram pass.
	rng := rand.New(rand.NewSource(136))
	m, n := 160, 16
	a := testmat.Generate(rng, m, n, 13, 1e-12)
	l := Layout{M: m, P: 4}
	blocks := scatter(a, l)
	var iteTrace []TraceEvent
	var iters, hqrColl int
	trace.Reset()
	trace.Enable()
	Run(4, func(c Comm) {
		ic := Instrument(c)
		res, err := IteCholQRCP(ic, blocks[c.Rank()], core.DefaultPivotTol)
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		if c.Rank() == 0 {
			iteTrace, iters = ic.Trace(), res.Iterations
		}
	})
	trace.Disable()
	stages := map[string]int64{}
	for _, row := range trace.Snapshot().Stages {
		stages[row.Stage] = row.Count
	}
	trace.Reset()
	blocks = scatter(a, l)
	Run(4, func(c Comm) {
		ic := Instrument(c)
		HQRCP(ic, blocks[c.Rank()], l, true)
		if c.Rank() == 0 {
			hqrColl = ic.Stats().Collectives
		}
	})
	if iters < 2 {
		t.Fatalf("%d pivoting iterations: the case must take a fused pass", iters)
	}
	if len(iteTrace) != iters+1 {
		t.Fatalf("Ite-CholQR-CP used %d collectives, want iterations+1 = %d", len(iteTrace), iters+1)
	}
	for i, ev := range iteTrace {
		if ev.Bytes != 8*n*n {
			t.Fatalf("collective %d moved %d bytes, want 8n² = %d", i, ev.Bytes, 8*n*n)
		}
	}
	if got, want := stages[trace.StageAllreduce.String()], int64(4*(iters+1)); got != want {
		t.Fatalf("%d Allreduce stage calls over 4 ranks, want %d", got, want)
	}
	if got := stages[trace.StageFused.String()]; got == 0 {
		t.Fatal("distributed Ite-CholQR-CP took no fused pass")
	}
	if hqrColl < 3*n {
		t.Fatalf("HQR-CP used %d collectives, want ≥ 3n = %d", hqrColl, 3*n)
	}

	// Collapse: with a zero column the trailing block collapses at rank
	// n − 1, and the reorthogonalization reuses the leading block of the
	// last fused pass's Gram — no extra collective.
	z := a.Clone()
	for i := 0; i < m; i++ {
		z.Set(i, 5, 0)
	}
	blocks = scatter(z, l)
	var rank int
	iteTrace = nil
	Run(4, func(c Comm) {
		ic := Instrument(c)
		res, err := IteCholQRCP(ic, blocks[c.Rank()], core.DefaultPivotTol)
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		if c.Rank() == 0 {
			iteTrace, iters, rank = ic.Trace(), res.Iterations, res.Rank
		}
	})
	if rank != n-1 {
		t.Fatalf("zero column: rank %d, want %d", rank, n-1)
	}
	if len(iteTrace) != iters+1 {
		t.Fatalf("collapse: %d collectives, want iterations+1 = %d", len(iteTrace), iters+1)
	}
}
