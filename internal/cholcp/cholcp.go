// Package cholcp implements Cholesky factorization with complete (diagonal)
// pivoting, including the paper's partial variant P-Chol-CP (Algorithm 3):
// the factorization of the Gram matrix W = AᵀA stops as soon as the
// largest remaining diagonal falls below W(1,1)·ε², because — as the
// paper's preliminary experiments (Fig. 1) show — pivot selections made
// past that point can no longer be trusted in floating-point arithmetic.
package cholcp

import (
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/mat"
)

// Result is the output of a (partial) pivoted Cholesky factorization
//
//	Pᵀ·W·P = Rᵀ·R + W′   (Eq. 6 of the paper)
//
// where the leading NPiv×NPiv block of R is a genuine Cholesky factor and
// the trailing (n−NPiv) diagonal of R is filled with the identity, so R is
// always invertible and can be applied with a triangular solve.
type Result struct {
	// R is the n×n upper triangular factor; rows NPiv..n hold the
	// identity padding of Algorithm 3 line 14.
	R *mat.Dense
	// Perm maps position j to the original index: (W·P)(:,j) = W(:,Perm[j]).
	Perm mat.Perm
	// NPiv is n′, the number of reliably pivoted columns.
	NPiv int
	// Breakdown reports that the factorization stopped because the best
	// remaining diagonal was ≤ 0 (loss of positive semidefiniteness to
	// roundoff) or at or below its floor, rather than by the ε tolerance
	// or by completing all n columns.
	Breakdown bool
}

// PCholCP runs the partial Cholesky factorization with complete pivoting
// (Algorithm 3) on symmetric W with stopping tolerance eps (the paper's ε;
// the recommended value for Ite-CholQR-CP is 1e-5). W is not modified.
//
// eps = 0 reproduces the paper's "ε = 0" variant, which only stops to
// avoid outright breakdown (a non-positive pivot diagonal). The engine e
// bounds the parallel width of the trailing downdates.
func PCholCP(e *parallel.Engine, w *mat.Dense, eps float64) Result {
	return PCholCPMax(e, w, eps, w.Rows, nil, mat.NewDense(w.Rows, w.Rows))
}

// PCholCPMax is PCholCP with a cap on the number of pivots factored,
// which stops Ite-CholQR-CP exactly at its rank cap, and an optional
// per-index floor: a trailing diagonal at or below floor[l] is rounding
// noise — what is left of index l after cancellation — and is never
// chosen as a pivot, not even as the first one, which the ε rule does
// not test. floor is nil or has an entry per index; it is permuted in
// place along with the pivots. R is factored into r, an n×n matrix or
// view that PCholCPMax zeroes first, and Result.R is r.
//
// It is blocked the way LAPACK's DPSTRF is. The trailing diagonal d is
// kept up to date after every pivot, d[l] = fma(−R[k][l], R[k][l], d[l]),
// and the pivot choice, the ε rule (Eq. 5) and breakdown read only d.
// Pivot row k is formed left-looking within its block of pcholcpBlock
// pivots starting at k₀, from the trailing matrix S as of the block's
// start:
//
//	R[k][j] = fma(−R[t][k], R[t][j], R[k][j]),   R[k][j] = S[k][j], t = k₀, …, k−1,   then R[k][j]·(1/R[k][k]).
//
// The block's downdate of S is one SYRK on its nb×(n−k) panel of R,
// touching S's upper triangle only (S is stored negated, so it is
// blas.SyrkUpperAcc: SyrkUpperTrans's bits without its two negations).
// It runs once the next block's first pivot is chosen, so only when one
// follows; its diagonal chains are d's. When n − k₀ ≤ pcholcpBlock no
// SYRK runs: that is the unblocked form. The SYRK partitions output
// rows only, so the result is bit-identical for every engine width.
func PCholCPMax(e *parallel.Engine, w *mat.Dense, eps float64, maxPiv int, floor []float64, r *mat.Dense) Result {
	if w.Rows != w.Cols || r.Rows != w.Rows || r.Cols != w.Cols {
		panic(fmt.Sprintf("cholcp: PCholCP on %d×%d into %d×%d", w.Rows, w.Cols, r.Rows, r.Cols))
	}
	n := w.Rows
	if maxPiv > n {
		maxPiv = n
	}
	if mat.DebugChecks {
		mat.CheckFinite("cholcp", "PCholCP input W", w)
	}
	sp := trace.Region(trace.KernelPCholCP)
	defer sp.End()
	neg := mat.GetWorkspace(n, n, false) // −S, upper triangle
	dws := mat.GetWorkspace(1, n, false)
	d := dws.Data[:n]
	for i := 0; i < n; i++ {
		wi := w.Data[i*w.Stride+i : i*w.Stride+n]
		for j, wv := range wi {
			neg.Data[i*neg.Stride+i+j] = -wv
		}
		d[i] = wi[0]
	}
	r.Zero() // the pivot swaps below rely on rows ≥ k of R being zero
	perm := mat.IdentityPerm(n)
	res := Result{R: r, Perm: perm}

	var w11 float64 // diagonal of the first pivot (the paper's W(1,1))
	k0 := 0         // first pivot of the current block
	for k := 0; k < maxPiv; k++ {
		// Select the largest remaining diagonal above its floor.
		for l := k; l < len(floor); l++ {
			if d[l] <= floor[l] {
				d[l] = 0
			}
		}
		p := k
		for l := k + 1; l < n; l++ {
			if d[l] > d[p] {
				p = l
			}
		}
		wpp := d[p]
		if k == 0 {
			w11 = wpp
		}
		if wpp <= 0 || math.IsNaN(wpp) {
			res.Breakdown = true
			trace.Inc(trace.CtrBreakdowns)
			break
		}
		if k > 0 && wpp < w11*eps*eps {
			trace.Inc(trace.CtrEpsExits)
			break
		}
		if p != k {
			symSwapUpper(neg, k, p)
			for t := 0; t < k; t++ { // rows ≥ k of R are still zero
				rt := r.Data[t*r.Stride:]
				rt[k], rt[p] = rt[p], rt[k]
			}
			perm.Swap(k, p)
			d[k], d[p] = d[p], d[k]
			if floor != nil {
				floor[k], floor[p] = floor[p], floor[k]
			}
		}
		if k == k0+pcholcpBlock {
			// The last block's rows are final: downdate S by them,
			// −S += R(k₀:k, k:)ᵀ·R(k₀:k, k:).
			blas.SyrkUpperAcc(e, r.Slice(k0, k, k, n), neg.Slice(k, n, k, n))
			k0 = k
		}
		rkk := math.Sqrt(d[k])
		r.Data[k*r.Stride+k] = rkk
		row := r.Data[k*r.Stride+k+1 : k*r.Stride+n]
		for j, sv := range neg.Data[k*neg.Stride+k+1 : k*neg.Stride+n] {
			row[j] = -sv
		}
		for t := k0; t < k; t++ {
			c := -r.Data[t*r.Stride+k]
			rt := r.Data[t*r.Stride+k+1 : t*r.Stride+n]
			for j, rv := range rt {
				row[j] = math.FMA(c, rv, row[j])
			}
		}
		inv := 1 / rkk
		dk := d[k+1:]
		for j := range row {
			row[j] *= inv
			dk[j] = math.FMA(-row[j], row[j], dk[j])
		}
		res.NPiv = k + 1
	}
	mat.PutWorkspace(neg)
	mat.PutWorkspace(dws)
	// Pad the unfactored trailing block with the identity (line 14).
	for k := res.NPiv; k < n; k++ {
		r.Set(k, k, 1)
	}
	trace.Add(trace.CtrPivotsFixed, int64(res.NPiv))
	trace.AddFlops(trace.KernelPCholCP, Flops(n, res.NPiv))
	return res
}

// pcholcpBlock is nb, the pivots per block of PCholCPMax: the summation
// length of its SYRK, which runs on the register tiles, and one more
// than the most terms of a pivot row's chain, a Go loop. 8 read fastest
// of {4, 8, 16, 32} at n = 64–256 (EXPERIMENTS.md).
const pcholcpBlock = 8

// Flops is the flop count PCholCPMax executes on an n×n W when it fixes
// nPiv pivots, which its kernel row records and the stage rows that wrap
// it add: pivot k of the block starting at k₀ takes 2·(k−k₀) for its
// chain terms and 3 for the scaling and the diagonal fma per trailing
// column, plus its square root; the SYRK at the start of each later
// block kb takes nb·(n−kb)·(n−kb+1), counted as Gram counts.
func Flops(n, nPiv int) int64 {
	var f int64
	for k := 0; k < nPiv; k++ {
		k0 := k - k%pcholcpBlock
		f += (2*int64(k-k0)+3)*int64(n-k-1) + 1
		if k > 0 && k == k0 {
			f += int64(pcholcpBlock) * int64(n-k) * int64(n-k+1)
		}
	}
	return f
}

// CholCP runs the classical Cholesky factorization with complete pivoting
// (no tolerance): it factors until completion or until positive
// semidefiniteness is lost to roundoff. Equivalent to PCholCP(e, w, 0).
func CholCP(e *parallel.Engine, w *mat.Dense) Result { return PCholCP(e, w, 0) }

// symSwapUpper applies the symmetric permutation that exchanges index k
// and p > k to the trailing matrix S[k:, k:] of which only the upper
// triangle is stored, LAPACK DPSTRF's three-part swap: the diagonal, the
// two rows right of p, and row k between k and p against column p.
func symSwapUpper(s *mat.Dense, k, p int) {
	n, ld := s.Cols, s.Stride
	d := s.Data
	d[k*ld+k], d[p*ld+p] = d[p*ld+p], d[k*ld+k]
	for j := p + 1; j < n; j++ {
		d[k*ld+j], d[p*ld+j] = d[p*ld+j], d[k*ld+j]
	}
	for j := k + 1; j < p; j++ {
		d[k*ld+j], d[j*ld+p] = d[j*ld+p], d[k*ld+j]
	}
}
