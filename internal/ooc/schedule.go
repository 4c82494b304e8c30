package ooc

import (
	"math"
	"os"
	"runtime/debug"
	"strconv"
	"strings"

	"repro/internal/blas"
)

// panel is one row range of a sweep, tagged with the fused-kernel slot
// it belongs to so its Gram contribution accumulates into the right
// per-slot partial.
type panel struct {
	lo, hi int // absolute row range [lo, hi)
	slot   int
}

// panelSchedule cuts m rows into panels of at most panelRows rows that
// never straddle a slot of the fused kernels' row reduction: each of
// blas.FusedSlots(m) slots is split on its own. Every Level-3 element is
// one fma chain over its slot's rows in order, so per-panel kernel calls
// fed in row order reproduce the in-core floating-point summation order
// exactly, wherever the cuts inside a slot fall — the entire
// bit-identity contract of this package (DESIGN.md §14). Panels are
// emitted in ascending row order (slots are contiguous), so a sweep is
// one strictly sequential traversal of the file.
func panelSchedule(m, panelRows int) []panel {
	step := max(panelRows, 1)
	slots := blas.FusedSlots(m)
	ps := make([]panel, 0, slots*((m/slots)/step+2))
	for si := 0; si < slots; si++ {
		lo, hi := blas.FusedSlotBounds(m, slots, si)
		for p := lo; p < hi; p += step {
			q := p + step
			if q > hi {
				q = hi
			}
			ps = append(ps, panel{lo: p, hi: q, slot: si})
		}
	}
	return ps
}

// Panel auto-tuning: the resident set of a sweep is two panel buffers
// (double buffering) plus n-sized state, so the panel height is chosen
// as budget/(2·8·n) where the budget is a fraction of the tightest
// available-memory signal — GOMEMLIMIT when set, /proc/meminfo
// MemAvailable on Linux, a conservative constant otherwise. The choice
// never affects result bits; taller panels only amortize per-panel
// overhead and give the prefetcher longer read runs.
const (
	// autotuneMemFraction divides the memory signal so the panel buffers
	// leave room for the Go heap, page cache, and everything else sharing
	// the machine.
	autotuneMemFraction = 8
	// autotuneMaxPanelRows bounds the buffer allocation when memory is
	// plentiful — beyond ~2M rows per panel the sequential-read runs are
	// long past the point of amortizing seek latency.
	autotuneMaxPanelRows = 2 << 20
	// autotuneDefaultBudget stands in when no memory signal exists.
	autotuneDefaultBudget = 4 << 30
)

func autoPanelRows(n int) int {
	budget := memBudget() / autotuneMemFraction
	rows := budget / (2 * 8 * int64(n))
	return int(min(max(rows, 1), autotuneMaxPanelRows))
}

// memBudget returns the tightest known bound on usable memory in bytes.
func memBudget() int64 {
	b := int64(math.MaxInt64)
	// debug.SetMemoryLimit(-1) reads the current limit (GOMEMLIMIT)
	// without changing it; MaxInt64 means unset.
	if lim := debug.SetMemoryLimit(-1); lim > 0 && lim < b {
		b = lim
	}
	if avail := readMemAvailable(); avail > 0 && avail < b {
		b = avail
	}
	if b == math.MaxInt64 {
		b = autotuneDefaultBudget
	}
	return b
}

// readMemAvailable parses MemAvailable from /proc/meminfo, returning 0
// on platforms or failures where the signal does not exist.
func readMemAvailable() int64 {
	data, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "MemAvailable:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil || kb <= 0 || kb > math.MaxInt64/1024 {
			return 0
		}
		return kb * 1024
	}
	return 0
}
