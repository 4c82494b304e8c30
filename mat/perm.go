package mat

import (
	"fmt"

	"repro/internal/parallel"
)

// Perm represents an n×n column permutation matrix P by its column map:
// P has a 1 in row p[j], column j, so (A·P)(:, j) = A(:, p[j]).
//
// Equivalently, p[j] answers "which original column of A lands in position
// j of A·P". This is the convention LAPACK's JPVT array uses (0-based).
type Perm []int

// IdentityPerm returns the identity permutation of length n.
func IdentityPerm(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// IsValid reports whether p is a bijection on {0, …, len(p)-1}.
func (p Perm) IsValid() bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Swap exchanges the images of positions i and j, i.e. p := p · P_(i,j).
func (p Perm) Swap(i, j int) { p[i], p[j] = p[j], p[i] }

// Inverse returns the permutation of Pᵀ (= P⁻¹).
func (p Perm) Inverse() Perm {
	out := make(Perm, len(p))
	for j, v := range p {
		out[v] = j
	}
	return out
}

// Clone returns a copy of p.
func (p Perm) Clone() Perm {
	out := make(Perm, len(p))
	copy(out, p)
	return out
}

// PermuteCols overwrites dst with A·P, i.e. dst(:, j) = A(:, p[j]).
// dst must have A's dimensions and must not alias A.
func PermuteCols(dst, a *Dense, p Perm) {
	if dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic(fmt.Sprintf("mat: PermuteCols %d×%d into %d×%d", a.Rows, a.Cols, dst.Rows, dst.Cols))
	}
	if len(p) != a.Cols {
		panic(fmt.Sprintf("mat: PermuteCols perm length %d != cols %d", len(p), a.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		src := a.Data[i*a.Stride : i*a.Stride+a.Cols]
		row := dst.Data[i*dst.Stride : i*dst.Stride+dst.Cols]
		for j, v := range p {
			row[j] = src[v]
		}
	}
}

// permParallelElems is the matrix size (in elements) below which the
// permutation runs inline on the calling goroutine: dispatching pool
// workers for a few cache lines of data costs more than the gather.
const permParallelElems = 1 << 16

// PermuteColsInPlaceEngine rearranges the columns of A in place so that
// afterwards A_new(:, j) = A_old(:, p[j]). Each row is gathered through a
// pooled row buffer — a contiguous, cache-friendly sweep that visits
// every element exactly twice — and row blocks are distributed across
// pool workers. This replaces the historical cycle-chasing walk, whose
// column-strided access pattern touched one cache line per element and
// allocated a rows-length scratch column on every call. The engine e
// bounds the parallel width.
func PermuteColsInPlaceEngine(e *parallel.Engine, a *Dense, p Perm) {
	if len(p) != a.Cols {
		panic(fmt.Sprintf("mat: PermuteColsInPlaceEngine perm length %d != cols %d", len(p), a.Cols))
	}
	n := a.Cols
	if n == 0 || a.Rows == 0 {
		return
	}
	minChunk := permParallelElems/n + 1
	e.For(a.Rows, minChunk, func(lo, hi int) {
		ws := GetWorkspace(1, n, false)
		tmp := ws.Data
		for i := lo; i < hi; i++ {
			row := a.Data[i*a.Stride : i*a.Stride+n]
			copy(tmp, row)
			for j, v := range p {
				row[j] = tmp[v]
			}
		}
		PutWorkspace(ws)
	})
}
