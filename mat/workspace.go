// Workspace pooling. The Level-3 kernels and the LAPACK substrate need
// short-lived scratch — per-worker Gram accumulators, WY block factors,
// the Geqp3 F matrix — whose sizes repeat exactly across the iterations of
// Ite-CholQR-CP. Pooling them removes all steady-state allocation from the
// iteration loop. Buffers are recycled through size-classed sync.Pools
// (class k holds backing slices of capacity 2^k), so a Get never returns a
// buffer smaller than requested and a buffer re-enters the class it can
// actually serve.

package mat

import (
	"math/bits"
	"sync"

	"repro/internal/trace"
)

const maxPoolClass = 63

var densePools [maxPoolClass + 1]sync.Pool // *Dense, cap(Data) ≥ 2^k

// classFor returns the smallest k with 2^k ≥ size (size ≥ 1).
func classFor(size int) int { return bits.Len(uint(size - 1)) }

// classHolding returns the largest k with 2^k ≤ cap, i.e. the class whose
// requests (all of size ≤ 2^k) this capacity can always satisfy.
func classHolding(c int) int { return bits.Len(uint(c)) - 1 }

// GetWorkspace returns an r×c matrix (Stride == c) drawn from the pool,
// allocating only when no pooled buffer is large enough. If clear is true
// the matrix is zeroed; otherwise its contents are unspecified and the
// caller must overwrite every element it reads. Return it with
// PutWorkspace when done.
func GetWorkspace(r, c int, clear bool) *Dense {
	if r < 0 || c < 0 {
		panic("mat: GetWorkspace negative dimension")
	}
	size := r * c
	if size == 0 {
		return &Dense{Rows: r, Cols: c, Stride: c}
	}
	k := classFor(size)
	trace.Inc(trace.CtrWorkspaceGets)
	if v := densePools[k].Get(); v != nil {
		d := v.(*Dense)
		d.Rows, d.Cols, d.Stride = r, c, c
		d.Data = d.Data[:size]
		if clear {
			for i := range d.Data {
				d.Data[i] = 0
			}
		}
		return d
	}
	trace.Inc(trace.CtrWorkspaceMisses)
	return &Dense{Rows: r, Cols: c, Stride: c, Data: make([]float64, size, 1<<k)}
}

// PutWorkspace returns a matrix obtained from GetWorkspace to the pool.
// The caller must not retain d or any view of its storage afterwards.
// Matrices not obtained from GetWorkspace are accepted as long as their
// backing slice is exclusively owned and compact (Stride == Cols).
func PutWorkspace(d *Dense) {
	if d == nil || cap(d.Data) == 0 || d.Stride != d.Cols {
		return
	}
	k := classHolding(cap(d.Data))
	d.Data = d.Data[:0]
	d.Rows, d.Cols, d.Stride = 0, 0, 0
	densePools[k].Put(d)
}
