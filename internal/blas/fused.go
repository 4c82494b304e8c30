package blas

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/mat"
)

// The fused permute→TRSM→Gram streaming pass. For tall-skinny m×n with
// m ≫ n every stage of the Ite-CholQR-CP inner loop is memory-bandwidth
// bound: the unfused sequence streams the full m×n working matrix from
// DRAM five times per pivoting iteration (permute read+write, TRSM
// read+write, next Gram read). Fusing the three into a single row-block
// pass performs the column gather in L1, solves the block against R while
// it is cache resident, and immediately accumulates its Gram
// contribution, collapsing the five traversals to two (one read, one
// write). See DESIGN.md §10 for the traffic model.
const (
	// fusedBlockRows is the micro-block height: one block of B rows is
	// gathered, solved, and Gram-accumulated while it stays cache
	// resident. It sets locality only, never bits.
	fusedBlockRows = 64
	// fusedMaxSlots is the fixed fan-out of the deterministic Gram
	// reduction: the row range is partitioned into at most this many
	// slots as a function of m only — never of the engine width — and
	// the per-slot partial Grams are reduced in ascending slot order.
	// Any engine width therefore produces bit-identical Gram results,
	// the lockstep contract the replicated distributed steps rely on.
	fusedMaxSlots = 16
	// fusedMinSlotRows keeps slots tall enough that the per-slot n×n
	// accumulator traffic stays negligible against the row streaming.
	fusedMinSlotRows = 2048
)

// fusedSlots returns the reduction fan-out for an m-row pass: a function
// of m alone, so the reduction shape (and hence the floating-point
// summation order) is identical for every engine width.
func fusedSlots(m int) int {
	s := m / fusedMinSlotRows
	if s < 1 {
		return 1
	}
	if s > fusedMaxSlots {
		return fusedMaxSlots
	}
	return s
}

// PermTrsmGramFused applies, in one streaming pass over the rows of B:
//
//	B := (B·P)·R⁻¹,   G := BᵀB   (the Gram of the updated B),
//
// where P is the column permutation perm ((B·P)(:,j) = B(:,perm[j]);
// nil means identity) and R is n×n upper triangular. This fuses lines
// 8–11 of Ite-CholQR-CP (Algorithm 4) with line 3 of the next iteration:
// each row block is gathered, solved, and accumulated into a per-slot
// Gram partial while it is cache resident, so B travels through DRAM
// once per direction instead of five times for the unfused
// permute + TRSM + SYRK sequence.
//
// The per-row permute is elementwise identical to
// mat.PermuteColsInPlace and the solve is TrsmRightUpperNoTrans's own
// kernel, so B matches the unfused permute + TRSM bit for bit. G is
// accumulated by Gram's kernel through the same fixed slot reduction
// (reduceRows), each element's chain running over the slot's rows in
// order whatever the micro-blocks, so G equals Gram of the updated B bit
// for bit too. Neither depends on the engine width, which keeps
// distributed ranks in lockstep. G is fully symmetric on return, like
// Gram.
//
// Panics if R has a zero diagonal entry, if perm is non-nil with a
// length other than B's column count, or if G is not n×n. The engine e
// bounds the parallel width (nil selects the default engine).
func PermTrsmGramFused(e *parallel.Engine, b *mat.Dense, perm mat.Perm, r, g *mat.Dense) {
	m, n := b.Rows, b.Cols
	checkTriangular(r, n, "PermTrsmGramFused")
	if g.Rows != n || g.Cols != n {
		panic(fmt.Sprintf("blas: PermTrsmGramFused G %d×%d, want %d×%d", g.Rows, g.Cols, n, n))
	}
	if perm != nil && len(perm) != n {
		panic(fmt.Sprintf("blas: PermTrsmGramFused perm length %d != cols %d", len(perm), n))
	}
	for k := 0; k < n; k++ {
		if r.Data[k*r.Stride+k] == 0 {
			panic(fmt.Sprintf("blas: PermTrsmGramFused singular R at diagonal %d", k))
		}
	}
	g.Zero()
	if m == 0 || n == 0 {
		return
	}
	sp := trace.Region(trace.KernelFusedTrsmGram)
	defer sp.End()
	trace.AddFlops(trace.KernelFusedTrsmGram,
		int64(m)*int64(n)*int64(n)+int64(m)*int64(n)*int64(n+1))
	trace.AddBytes(trace.KernelFusedTrsmGram, 2*8*int64(m)*int64(n))
	reduceRows(e, m, mulFlops(2, m, n, n), g, true, rowJob{b: b, r: r, perm: perm}, fusedRows)
	SymmetrizeFromUpper(g)
}

// fusedRows is the reduceRows kernel of PermTrsmGramFused. The gather
// scratch is a pooled 1×n Dense (PutFloats heap-escapes its header),
// keeping the width-1 path allocation free.
func fusedRows(job rowJob, lo, hi int, acc *mat.Dense) {
	tmp := mat.GetWorkspace(1, job.b.Cols, false)
	fusedSlotRange(job.b, job.r, job.perm, lo, hi, acc, tmp.Data)
	mat.PutWorkspace(tmp)
}

// fusedSlotBounds returns the half-open row range of slot si out of slots,
// matching parallel.Split(m, slots, 1) exactly without allocating the
// range slice.
func fusedSlotBounds(m, slots, si int) (lo, hi int) {
	chunk, rem := m/slots, m%slots
	lo = si*chunk + min(si, rem)
	hi = lo + chunk
	if si < rem {
		hi++
	}
	return lo, hi
}

// fusedSlotRange streams rows [lo, hi) of B through the three fused
// stages one micro-block at a time: gather the column permutation into
// the block (tmp is an n-length scratch row), solve the block against R
// with the left-looking TRSM, and accumulate the block's Gram
// contribution into acc (upper triangle) with the register-tiled SYRK.
// The blocks only set locality: each acc element's chain runs over the
// slot's rows in order, fixed by the slot bounds alone.
//
//repolint:hotpath
func fusedSlotRange(b, r *mat.Dense, perm mat.Perm, lo, hi int, acc *mat.Dense, tmp []float64) {
	n := b.Cols
	for q := lo; q < hi; q += fusedBlockRows {
		qhi := q + fusedBlockRows
		if qhi > hi {
			qhi = hi
		}
		if perm != nil {
			for i := q; i < qhi; i++ {
				row := b.Data[i*b.Stride : i*b.Stride+n]
				copy(tmp, row)
				for j, v := range perm {
					row[j] = tmp[v]
				}
			}
		}
		fusedTrsmRange(b, r, q, qhi)
		fusedSyrkCols(b, q, qhi, 0, n, acc)
	}
}

// fusedTrsmRange solves rows [lo, hi) of B in place against the upper
// triangular R: X := X·R⁻¹. It is the package's one right-side TRSM
// kernel, used both on an L1-resident micro-block of the fused pass and
// on streamed row ranges by TrsmRightUpperNoTrans. It is left-looking:
// for each 4-row block and each column tile [j0, j0+nc), one trsmTile
// call applies every term from the solved columns t < j0 and then solves
// the tile's diagonal block, continuing the same chains. Every element is
// the chain of quad.go, so its bits never depend on how rows were
// grouped: not on (lo, hi), and therefore not on the engine width. The n
// diagonal reciprocals are computed once per call, on the stack for
// n ≤ len(invBuf) and in a pooled workspace beyond.
//
//repolint:hotpath
func fusedTrsmRange(b, r *mat.Dense, lo, hi int) {
	n := b.Cols
	var invBuf [128]float64
	var ws *mat.Dense
	inv := invBuf[:]
	if n > len(invBuf) {
		ws = mat.GetWorkspace(1, n, false)
		inv = ws.Data
	}
	inv = inv[:n]
	for k := range inv {
		inv[k] = 1 / r.Data[k*r.Stride+k]
	}
	for i := lo; i < hi; i += 4 {
		mr := min(4, hi-i)
		x := b.Data[i*b.Stride:]
		for j0 := 0; j0 < n; {
			nc := tileWidth(n - j0)
			trsmTile(x, b.Stride, mr, r.Data, r.Stride, inv, j0, nc)
			j0 += nc
		}
	}
	if ws != nil {
		mat.PutWorkspace(ws)
	}
}

// fusedSyrkCols accumulates the Gram contribution of rows [lo, hi) of B
// into output rows [iLo, iHi) of acc's upper triangle:
// acc(i,j) = fma(B(t,i), B(t,j), acc(i,j)) for t = lo, …, hi−1 in order,
// iLo ≤ i < iHi, j ≥ i. The rows are taken fusedBlockRows at a time so a
// block of B stays in L1 while every 4-row output tile (tileTN) runs
// over it; a tile on the diagonal leaves the strict lower triangle
// alone. Restricting the output rows instead of the summation range is
// what lets callers parallelize without changing any element's chain.
//
//repolint:hotpath
func fusedSyrkCols(b *mat.Dense, lo, hi, iLo, iHi int, acc *mat.Dense) {
	n := b.Cols
	for q := lo; q < hi; q += fusedBlockRows {
		k := min(fusedBlockRows, hi-q)
		bq := b.Data[q*b.Stride:]
		for i0 := iLo; i0 < iHi; i0 += 4 {
			mr := min(4, iHi-i0)
			for j0 := i0; j0 < n; {
				nc := tileWidth(n - j0)
				tileTN(acc.Data[i0*acc.Stride+j0:], acc.Stride, bq[i0:], b.Stride, bq[j0:], b.Stride, k, mr, nc, j0 == i0)
				j0 += nc
			}
		}
	}
}
