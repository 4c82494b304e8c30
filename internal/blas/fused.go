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
	// resident. Must be a multiple of the 4-row register quad so the
	// quad grouping inside a slot is independent of the block loop.
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
// (reduceRows), and the micro-blocks keep its quad grouping, so G equals
// Gram of the updated B bit for bit too. Neither depends on the engine
// width, which keeps distributed ranks in lockstep. G is fully symmetric
// on return, like Gram.
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
// with the panel-blocked TRSM, and accumulate the block's Gram
// contribution into acc (upper triangle) with the register-tiled SYRK.
// The micro-block grouping is anchored at lo, so the summation order
// inside a slot is fixed by the slot boundaries alone.
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
// on streamed row ranges by TrsmRightUpperNoTrans. The solve is panel
// blocked for arithmetic intensity: for each 4-wide column panel the 4×4
// diagonal block is solved by substitution, then the trailing columns
// receive one rank-4 update (gemmQuad) across a 4-row quad. Every row,
// in a quad or among the 1–3 remainder rows, takes the same arithmetic —
// reciprocal multiplies, the same panel walk, the same association — so
// a row's bits never depend on how rows were grouped: not on (lo, hi),
// and therefore not on the engine width. The n diagonal reciprocals are
// computed once per call, on the stack for n ≤ len(invBuf) and in a
// pooled workspace beyond.
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
	var v [16]float64
	i := lo
	for ; i+4 <= hi; i += 4 {
		x := b.Data[i*b.Stride:]
		x0 := x[:n]
		x1 := x[b.Stride : b.Stride+n]
		x2 := x[2*b.Stride : 2*b.Stride+n]
		x3 := x[3*b.Stride : 3*b.Stride+n]
		k0 := 0
		for ; k0+4 <= n; k0 += 4 {
			rq := r.Data[k0*r.Stride:]
			r0 := rq[:n]
			r1 := rq[r.Stride : r.Stride+n]
			r2 := rq[2*r.Stride : 2*r.Stride+n]
			inv0, inv1, inv2, inv3 := inv[k0], inv[k0+1], inv[k0+2], inv[k0+3]
			// Substitution on the 4×4 diagonal panel, one quad row at
			// a time, straight into v, the rank-4 update's panel.
			v[0] = x0[k0] * inv0
			v[1] = (x0[k0+1] - v[0]*r0[k0+1]) * inv1
			v[2] = (x0[k0+2] - v[0]*r0[k0+2] - v[1]*r1[k0+2]) * inv2
			v[3] = (x0[k0+3] - v[0]*r0[k0+3] - v[1]*r1[k0+3] - v[2]*r2[k0+3]) * inv3
			x0[k0], x0[k0+1], x0[k0+2], x0[k0+3] = v[0], v[1], v[2], v[3]
			v[4] = x1[k0] * inv0
			v[5] = (x1[k0+1] - v[4]*r0[k0+1]) * inv1
			v[6] = (x1[k0+2] - v[4]*r0[k0+2] - v[5]*r1[k0+2]) * inv2
			v[7] = (x1[k0+3] - v[4]*r0[k0+3] - v[5]*r1[k0+3] - v[6]*r2[k0+3]) * inv3
			x1[k0], x1[k0+1], x1[k0+2], x1[k0+3] = v[4], v[5], v[6], v[7]
			v[8] = x2[k0] * inv0
			v[9] = (x2[k0+1] - v[8]*r0[k0+1]) * inv1
			v[10] = (x2[k0+2] - v[8]*r0[k0+2] - v[9]*r1[k0+2]) * inv2
			v[11] = (x2[k0+3] - v[8]*r0[k0+3] - v[9]*r1[k0+3] - v[10]*r2[k0+3]) * inv3
			x2[k0], x2[k0+1], x2[k0+2], x2[k0+3] = v[8], v[9], v[10], v[11]
			v[12] = x3[k0] * inv0
			v[13] = (x3[k0+1] - v[12]*r0[k0+1]) * inv1
			v[14] = (x3[k0+2] - v[12]*r0[k0+2] - v[13]*r1[k0+2]) * inv2
			v[15] = (x3[k0+3] - v[12]*r0[k0+3] - v[13]*r1[k0+3] - v[14]*r2[k0+3]) * inv3
			x3[k0], x3[k0+1], x3[k0+2], x3[k0+3] = v[12], v[13], v[14], v[15]
			// Rank-4 update of the trailing columns.
			gemmQuad(x, b.Stride, rq, r.Stride, &v, k0+4, n)
		}
		// Remainder columns (n not a multiple of 4): plain substitution.
		for k := k0; k < n; k++ {
			rk := r.Data[k*r.Stride : k*r.Stride+n]
			v0 := x0[k] * inv[k]
			v1 := x1[k] * inv[k]
			v2 := x2[k] * inv[k]
			v3 := x3[k] * inv[k]
			x0[k], x1[k], x2[k], x3[k] = v0, v1, v2, v3
			for j := k + 1; j < n; j++ {
				rv := rk[j]
				x0[j] -= v0 * rv
				x1[j] -= v1 * rv
				x2[j] -= v2 * rv
				x3[j] -= v3 * rv
			}
		}
	}
	// Remainder rows: one quad row's arithmetic, row by row.
	for ; i < hi; i++ {
		x := b.Data[i*b.Stride : i*b.Stride+n]
		k0 := 0
		for ; k0+4 <= n; k0 += 4 {
			rq := r.Data[k0*r.Stride:]
			r0 := rq[:n]
			r1 := rq[r.Stride : r.Stride+n]
			r2 := rq[2*r.Stride : 2*r.Stride+n]
			v0 := x[k0] * inv[k0]
			v1 := (x[k0+1] - v0*r0[k0+1]) * inv[k0+1]
			v2 := (x[k0+2] - v0*r0[k0+2] - v1*r1[k0+2]) * inv[k0+2]
			v3 := (x[k0+3] - v0*r0[k0+3] - v1*r1[k0+3] - v2*r2[k0+3]) * inv[k0+3]
			x[k0], x[k0+1], x[k0+2], x[k0+3] = v0, v1, v2, v3
			gemmQuadRow(x, rq, r.Stride, v0, v1, v2, v3, k0+4, n)
		}
		for k := k0; k < n; k++ {
			rk := r.Data[k*r.Stride : k*r.Stride+n]
			v := x[k] * inv[k]
			x[k] = v
			for j := k + 1; j < n; j++ {
				x[j] -= v * rk[j]
			}
		}
	}
	if ws != nil {
		mat.PutWorkspace(ws)
	}
}

// fusedSyrkCols accumulates the Gram contribution of rows [lo, hi) of B
// into output rows [iLo, iHi) of acc's upper triangle:
// acc(i,j) += Σ_k B(k,i)·B(k,j) for iLo ≤ i < iHi, j ≥ i. The summation
// rows are consumed in ascending quads (syrkQuad) and, within a quad,
// each acc element receives one 4-term dot; remainder rows follow as
// rank-1 updates. The order is a function of (lo, hi) alone, so any
// engine width reproduces the same bits. iLo must be even (a row-pair
// boundary); iHi is even or n. Restricting the output rows instead of the
// summation range is what lets callers parallelize without changing any
// element's accumulation order.
//
//repolint:hotpath
func fusedSyrkCols(b *mat.Dense, lo, hi, iLo, iHi int, acc *mat.Dense) {
	n := b.Cols
	k := lo
	for ; k+4 <= hi; k += 4 {
		syrkQuad(acc.Data, acc.Stride, b.Data[k*b.Stride:], b.Stride, n, iLo, iHi)
	}
	// Remainder summation rows: rank-1 accumulation.
	for ; k < hi; k++ {
		rk := b.Data[k*b.Stride : k*b.Stride+n]
		for i := iLo; i < iHi; i++ {
			v := rk[i]
			if v == 0 {
				continue
			}
			di := acc.Data[i*acc.Stride : i*acc.Stride+n]
			for j := i; j < n; j++ {
				di[j] += v * rk[j]
			}
		}
	}
}
