package dist

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
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

func TestDistCholQRMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	m, n := 240, 12
	a := testmat.GenerateWellConditioned(rng, m, n, 100)
	serial, err := core.CholQR(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 6} {
		l := Layout{M: m, P: p}
		blocks := scatter(a, l)
		rs := make([]*mat.Dense, p)
		var mu sync.Mutex
		Run(p, func(c Comm) {
			r, err := CholQR(c, blocks[c.Rank()])
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			mu.Lock()
			rs[c.Rank()] = r
			mu.Unlock()
		})
		q := gather(blocks, l)
		if e := metrics.Orthogonality(q); e > 1e-12 {
			t.Fatalf("p=%d: orthogonality %g", p, e)
		}
		if res := metrics.Residual(a, q, rs[0], mat.IdentityPerm(n)); res > 1e-13 {
			t.Fatalf("p=%d: residual %g", p, res)
		}
		// All ranks must hold the same replicated R.
		for r := 1; r < p; r++ {
			if !mat.EqualApprox(rs[r], rs[0], 0) {
				t.Fatalf("p=%d: replicated R differs on rank %d", p, r)
			}
		}
		// The deterministic reduction should reproduce the serial result
		// closely (identical when p=1).
		if p == 1 && !mat.EqualApprox(rs[0], serial.R, 0) {
			t.Fatal("p=1 must be bit-identical to serial CholQR")
		}
	}
}

func TestDistIteCholQRCPMatchesSerialPivots(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	m, n, r := 400, 20, 16
	a := testmat.Generate(rng, m, n, r, 1e-10)
	serialRes, err := core.IteCholQRCP(nil, a, core.DefaultPivotTol)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 8} {
		l := Layout{M: m, P: p}
		blocks := scatter(a, l)
		results := make([]*QRCPResult, p)
		Run(p, func(c Comm) {
			res, err := IteCholQRCP(c, blocks[c.Rank()], core.DefaultPivotTol)
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			results[c.Rank()] = res
		})
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
		t.Fatalf("%s: Q or R not bit-identical to in-core", label)
	}
}

func TestDistHQRCPMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	m, n, rk := 300, 18, 14
	a := testmat.Generate(rng, m, n, rk, 1e-8)
	serial := core.HQRCP(nil, a)
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
	serial := core.HQRCP(nil, a)
	for j := range serial.Perm {
		if results[0].Perm[j] != serial.Perm[j] {
			t.Fatalf("pivots differ at %d", j)
		}
	}
	if !mat.EqualApprox(results[0].R, serial.R, 1e-10*serial.R.MaxAbs()) {
		t.Fatal("R differs from serial")
	}
}

func TestDistHQRCPUnevenRows(t *testing.T) {
	// m not divisible by P exercises the general layout path.
	rng := rand.New(rand.NewSource(135))
	m, n := 101, 7
	a := testmat.GenerateWellConditioned(rng, m, n, 50)
	l := Layout{M: m, P: 4}
	blocks := scatter(a, l)
	results := make([]*QRCPResult, 4)
	Run(4, func(c Comm) {
		results[c.Rank()] = HQRCP(c, blocks[c.Rank()], l, true)
	})
	qblocks := make([]*mat.Dense, 4)
	for r := 0; r < 4; r++ {
		qblocks[r] = results[r].QLocal
	}
	q := gather(qblocks, l)
	if e := metrics.Orthogonality(q); e > 1e-12 {
		t.Fatalf("orthogonality %g", e)
	}
	if res := metrics.Residual(a, q, results[0].R, results[0].Perm); res > 1e-12 {
		t.Fatalf("residual %g", res)
	}
}

func TestDistCollectiveCounts(t *testing.T) {
	// The CA property: Ite-CholQR-CP needs exactly one n×n Gram
	// Allreduce per sweep — one per pivoting iteration plus the
	// reorthogonalization — independent of n, HQR-CP needs Ω(n). The
	// distributed run takes the in-core fused permute→TRSM→Gram pass.
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
}

func TestDistIteCholQRCPTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	m, n, k := 320, 20, 8
	a := testmat.Generate(rng, m, n, 16, 1e-8)
	serial, err := core.IteCholQRCPPartial(nil, a, core.DefaultPivotTol, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		l := Layout{M: m, P: p}
		blocks := scatter(a, l)
		results := make([]*TruncatedResult, p)
		Run(p, func(c Comm) {
			res, err := IteCholQRCPTruncated(c, blocks[c.Rank()], core.DefaultPivotTol, k)
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			results[c.Rank()] = res
		})
		if results[0] == nil {
			t.FailNow()
		}
		if results[0].Rank != serial.Rank {
			t.Fatalf("p=%d: distributed rank %d != serial %d", p, results[0].Rank, serial.Rank)
		}
		for j := 0; j < results[0].Rank; j++ {
			if results[0].Perm[j] != serial.Perm[j] {
				t.Fatalf("p=%d: pivot %d differs from serial", p, j)
			}
		}
		qblocks := make([]*mat.Dense, p)
		for r := 0; r < p; r++ {
			qblocks[r] = results[r].QLocal
		}
		q := gather(qblocks, l)
		if e := metrics.Orthogonality(q); e > 1e-13 {
			t.Fatalf("p=%d: orthogonality %g", p, e)
		}
		// k = 8 is below the numerical rank 16, so the residual is not at
		// roundoff; compare against the serial truncated factor instead:
		// bit for bit on one rank, to roundoff across ranks.
		if p == 1 {
			requireSameFactors(t, "p=1", q, results[0].R, results[0].Perm, serial.Q, serial.R, serial.Perm)
		} else if !mat.EqualApprox(results[0].R, serial.R, 1e-10*serial.R.MaxAbs()) {
			t.Fatalf("p=%d: distributed truncated R differs from serial", p)
		}
	}
}
