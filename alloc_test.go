//go:build !race

package tsqrcp

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/mat"
)

// TestQRCPAllocation bounds the bytes one warm in-process QRCP allocates
// at 1000×32: the exact-size Q (m·n·8 bytes) and the n-sized results and
// bookkeeping, within 20 KiB. The driver loop's two n×n workspaces come
// from the workspace pool, so they no longer count (allocated, they
// were 2·8·n² = 16 KiB of the Q + 41.6 KB the loop took), and P-Chol-CP
// factors into the R′ workspace rather than a fresh (n−k)² R. The collector
// is off and GOMAXPROCS 1, so the pools keep what they are given, and
// the least of a few calls is taken. The race build skips it: its
// sync.Pool drops puts at random.
func TestQRCPAllocation(t *testing.T) {
	const m, n, slack = 1000, 32, 20 << 10
	rng := rand.New(rand.NewSource(37))
	a := mat.NewDense(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	eng := NewEngine(1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := uint64(math.MaxUint64)
	for range 4 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := eng.QRCP(a, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(m*n*8 + slack); got > limit {
		t.Errorf("QRCP %dx%d allocated %d bytes, want ≤ %d (Q %d + %d)", m, n, got, limit, m*n*8, slack)
	}
	t.Logf("QRCP %dx%d allocated %d bytes = Q + %d", m, n, got, int(got)-m*n*8)
}
