package subspace

import (
	"fmt"
	"math/rand"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/mat"
)

// BasisBuilder incrementally assembles an orthonormal basis from a
// sequence of column blocks — the block-orthogonalization pattern of
// s-step Krylov methods (the paper's references [22] Stathopoulos–Wu and
// [26] s-step GMRES, both of which the Cholesky QR family was designed
// for). Each appended block is orthogonalized against the existing basis
// by two classical block Gram–Schmidt projections (BCGS2) and internally
// by CholeskyQR2, falling back to pivoted QR with rank detection when a
// block is numerically dependent on the basis: the dependent directions
// are dropped rather than polluting the basis.
type BasisBuilder struct {
	n   int
	q   *mat.Dense // n×cap backing storage; first k columns are the basis
	k   int
	rng *rand.Rand
}

// NewBasisBuilder creates a builder for length-n vectors with the given
// initial capacity (grows as needed).
func NewBasisBuilder(n, capacity int) *BasisBuilder {
	if capacity < 1 {
		capacity = 8
	}
	return &BasisBuilder{n: n, q: mat.NewDense(n, capacity), rng: rand.New(rand.NewSource(7))}
}

// Len reports the current basis size.
func (b *BasisBuilder) Len() int { return b.k }

// Basis returns a view of the current orthonormal basis (n×Len). The
// view is invalidated by the next Append.
func (b *BasisBuilder) Basis() *mat.Dense { return b.q.Slice(0, b.n, 0, b.k) }

// dropTol is the relative norm below which a projected column counts as
// numerically dependent on the basis and is dropped.
const dropTol = 1e-8

// Append orthogonalizes the block x (n×s) against the basis and adds its
// numerically independent directions. Columns whose projection onto the
// basis complement shrinks below dropTol of their original norm are
// considered dependent and dropped. It returns the number of columns
// actually added (0 ≤ added ≤ s). x is not modified.
func (b *BasisBuilder) Append(x *mat.Dense) (added int, err error) {
	if x.Rows != b.n {
		panic(fmt.Sprintf("subspace: Append block has %d rows, want %d", x.Rows, b.n))
	}
	s := x.Cols
	if s == 0 {
		return 0, nil
	}
	if s > b.n {
		// Wider than tall cannot be orthonormalized in one shot; split.
		a1, err := b.Append(x.Slice(0, b.n, 0, s/2))
		if err != nil {
			return a1, err
		}
		a2, err := b.Append(x.Slice(0, b.n, s/2, s))
		return a1 + a2, err
	}
	work := x.Clone()
	orig := make([]float64, s)
	for j := 0; j < s; j++ {
		orig[j] = work.ColNorm2(j)
	}
	// Two classical block Gram–Schmidt passes: W := (I − Q·Qᵀ)²·W.
	for pass := 0; pass < 2; pass++ {
		if b.k == 0 {
			break
		}
		qv := b.Basis()
		proj := mat.NewDense(b.k, s)
		blas.Gemm(nil, blas.Trans, blas.NoTrans, 1, qv, work, 0, proj)
		blas.Gemm(nil, blas.NoTrans, blas.NoTrans, -1, qv, proj, 1, work)
	}
	// Drop columns that collapsed into the span of the basis.
	var keep []int
	for j := 0; j < s; j++ {
		if orig[j] > 0 && work.ColNorm2(j) > dropTol*orig[j] {
			keep = append(keep, j)
		}
	}
	if len(keep) == 0 {
		return 0, nil
	}
	kept := mat.NewDense(b.n, len(keep))
	for i := 0; i < b.n; i++ {
		src := work.Data[i*work.Stride : i*work.Stride+s]
		dst := kept.Data[i*kept.Stride : i*kept.Stride+len(keep)]
		for jj, j := range keep {
			dst[jj] = src[j]
		}
	}
	// Intra-block orthogonalization with rank detection on the survivors.
	rank := len(keep)
	if _, err := core.CholQR2InPlace(nil, kept); err != nil {
		// Mutually dependent survivors: pivoted QR sorts the independent
		// directions first and reveals the usable rank.
		res, err2 := core.IteCholQRCP(nil, kept, core.DefaultPivotTol, kept.Cols)
		if err2 != nil {
			return 0, nil
		}
		rank = core.NumericalRank(res.R, 1e-12)
		kept = res.Q
	}
	if rank == 0 {
		return 0, nil
	}
	b.grow(b.k + rank)
	b.q.Slice(0, b.n, b.k, b.k+rank).Copy(kept.Slice(0, b.n, 0, rank))
	b.k += rank
	return rank, nil
}

func (b *BasisBuilder) grow(need int) {
	if need <= b.q.Cols {
		return
	}
	newCap := b.q.Cols * 2
	if newCap < need {
		newCap = need
	}
	nq := mat.NewDense(b.n, newCap)
	nq.Slice(0, b.n, 0, b.k).Copy(b.q.Slice(0, b.n, 0, b.k))
	b.q = nq
}
