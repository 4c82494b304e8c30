package core

import (
	"fmt"
	"sort"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/parallel"
	"repro/mat"
)

// TournamentPivots selects k pivot columns by the tournament (reduction-
// tree) strategy of the communication-avoiding RRQR of Demmel, Grigori,
// Gu and Xiang (2015 — the paper's reference [29]): the columns are
// partitioned into groups, a local Householder QRCP picks min(k, width)
// candidates per group, and winners of pairwise playoffs (QRCP on the
// union of two candidate sets) advance until one set of k pivots remains.
//
// Tournament pivoting reduces communication for wide matrices, but — as
// the paper notes in §V — its pivot sequence is generally *not* the
// greedy HQR-CP sequence and its rank-revealing quality can be weaker.
// It is provided as the prior-art CA comparator.
func TournamentPivots(e *parallel.Engine, a *mat.Dense, k, groupCols int) mat.Perm {
	m, n := a.Rows, a.Cols
	if k < 1 || k > n {
		panic(fmt.Sprintf("core: TournamentPivots rank %d outside [1,%d]", k, n))
	}
	if groupCols < 1 {
		groupCols = k
	}
	if m < k {
		panic(fmt.Sprintf("core: TournamentPivots needs m ≥ k, got m=%d k=%d", m, k))
	}
	// Leaves: candidate sets from disjoint column groups.
	var sets [][]int
	for lo := 0; lo < n; lo += groupCols {
		hi := lo + groupCols
		if hi > n {
			hi = n
		}
		group := make([]int, hi-lo)
		for i := range group {
			group[i] = lo + i
		}
		sets = append(sets, playoff(e, a, group, k))
	}
	// Reduction tree.
	for len(sets) > 1 {
		var next [][]int
		for i := 0; i+1 < len(sets); i += 2 {
			union := append(append([]int{}, sets[i]...), sets[i+1]...)
			next = append(next, playoff(e, a, union, k))
		}
		if len(sets)%2 == 1 {
			next = append(next, sets[len(sets)-1])
		}
		sets = next
	}
	winners := sets[0]
	// Assemble a full permutation: winners first (in playoff order), the
	// remaining columns after, in ascending order.
	perm := make(mat.Perm, 0, n)
	taken := make([]bool, n)
	for _, c := range winners {
		perm = append(perm, c)
		taken[c] = true
	}
	rest := make([]int, 0, n-len(winners))
	for c := 0; c < n; c++ {
		if !taken[c] {
			rest = append(rest, c)
		}
	}
	sort.Ints(rest)
	return append(perm, rest...)
}

// playoff runs Householder QRCP on the sub-matrix formed by the given
// columns and returns the first min(k, len(cols)) winning column indices
// in pivot order.
func playoff(e *parallel.Engine, a *mat.Dense, cols []int, k int) []int {
	m := a.Rows
	sub := mat.NewDense(m, len(cols))
	for i := 0; i < m; i++ {
		src := a.Data[i*a.Stride : i*a.Stride+a.Cols]
		dst := sub.Data[i*sub.Stride : i*sub.Stride+sub.Cols]
		for j, c := range cols {
			dst[j] = src[c]
		}
	}
	tau := make([]float64, min(m, len(cols)))
	jpvt := make(mat.Perm, len(cols))
	lapack.Geqp3(e, sub, tau, jpvt)
	if k > len(cols) {
		k = len(cols)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cols[jpvt[i]]
	}
	return out
}

// TournamentQRCP selects k pivots by tournament pivoting, moves them to
// the front, and completes a rank-k truncated factorization with an
// unpivoted QR of the winner columns: A·P ≈ Q₁·R₁ as in QRCPTruncated,
// but with CA-RRQR pivot quality instead of greedy pivots.
func TournamentQRCP(e *parallel.Engine, a *mat.Dense, k, groupCols int) (*CPResult, error) {
	m, n := a.Rows, a.Cols
	perm := TournamentPivots(e, a, k, groupCols)
	ap := mat.NewDense(m, n)
	mat.PermuteCols(ap, a, perm)
	// Thin QR of the winner block.
	q1 := ap.Slice(0, m, 0, k).Clone()
	qr := HouseholderQR(e, q1)
	// R₁ = [R₁₁ | Q₁ᵀ·A_rest].
	r1 := mat.NewDense(k, n)
	r1.Slice(0, k, 0, k).Copy(qr.R)
	if k < n {
		rest := ap.Slice(0, m, k, n)
		coupling := r1.Slice(0, k, k, n)
		blas.Gemm(e, blas.Trans, blas.NoTrans, 1, qr.Q, rest, 0, coupling)
	}
	return &CPResult{Q: qr.Q, R: r1, Perm: perm, Rank: k}, nil
}
