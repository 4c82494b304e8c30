package ooc

import "repro/internal/blas"

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

// panelBudget is the memory, in bytes, of a sweep's two panel buffers
// (double buffering) when Config.PanelRows is 0. The height never
// affects result bits; taller panels only amortize per-panel overhead
// and give the prefetcher longer read runs, and 32 MiB already makes
// each read a multi-megabyte sequential run.
const panelBudget = 32 << 20

// autoPanelRows is the panel height of an m×n matrix whose two n-column
// float64 buffers fill panelBudget: panelBudget/(2·8·n), clamped to
// [1, m].
func autoPanelRows(m, n int) int {
	return min(max(panelBudget/(2*8*max(n, 1)), 1), m)
}
