// Package dist provides the distributed-memory substrate and distributed
// algorithms of the paper's §IV-D evaluation.
//
// The paper runs MPI on up to 16 384 processes over Omni-Path and Tofu-D
// interconnects. Here the substitute is:
//
//   - Comm, an MPI-like communicator interface with the one collective the
//     algorithms need, Allreduce-sum;
//   - LocalGroup, an in-process implementation where each rank is a
//     goroutine and collectives are deterministic shared-memory
//     reductions — this preserves the *semantics* and the collective
//     *counts* of the MPI code exactly;
//   - CostModel, an α-β latency/bandwidth model that charges each
//     collective log₂(P)·(α + β·bytes), used to extrapolate measured
//     per-rank compute rates to the paper's process counts where the
//     latency-bound regime makes the communication-avoiding property of
//     Ite-CholQR-CP visible (Figs. 6–8, Table III).
//
// The distributed algorithms (CholQR, Ite-CholQR-CP, HQR-CP) operate on
// the paper's 1-D block-row layout (Eq. 2): rank p holds the contiguous
// row block A_p of the tall matrix.
package dist

import (
	"fmt"

	"repro/internal/parallel"
)

// Comm is the per-rank communicator handle, the minimal MPI subset the
// tall-skinny algorithms need, plus the engine the rank computes on.
type Comm interface {
	// Rank returns this process's 0-based rank.
	Rank() int
	// Size returns the number of ranks in the group.
	Size() int
	// Engine returns the engine this rank's local kernels run on.
	Engine() *parallel.Engine
	// AllreduceSum replaces buf on every rank with the element-wise sum
	// of all ranks' buffers. All ranks must pass equal-length buffers.
	AllreduceSum(buf []float64)
}

// Layout describes the 1-D block-row distribution of an m-row matrix over
// P ranks (Eq. 2 of the paper). Rows are split into near-equal contiguous
// blocks; when P divides m this is exactly the paper's m/P per rank.
type Layout struct {
	M, P int
}

// RowRange returns the half-open global row interval [lo, hi) owned by rank.
func (l Layout) RowRange(rank int) (lo, hi int) {
	if rank < 0 || rank >= l.P {
		panic(fmt.Sprintf("dist: rank %d outside [0,%d)", rank, l.P))
	}
	chunk, rem := l.M/l.P, l.M%l.P
	lo = rank*chunk + min(rank, rem)
	hi = lo + chunk
	if rank < rem {
		hi++
	}
	return lo, hi
}

// Owner returns the rank owning global row i.
func (l Layout) Owner(i int) int {
	if i < 0 || i >= l.M {
		panic(fmt.Sprintf("dist: row %d outside [0,%d)", i, l.M))
	}
	chunk, rem := l.M/l.P, l.M%l.P
	// The first rem ranks own chunk+1 rows.
	big := (chunk + 1) * rem
	if i < big {
		return i / (chunk + 1)
	}
	if chunk == 0 {
		return rem // unreachable when P ≤ M, kept for safety
	}
	return rem + (i-big)/chunk
}
