package dist

import (
	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/mat"
)

// TSQR computes the distributed thin QR factorization by the
// communication-avoiding TSQR scheme on the 1-D block-row layout: each
// rank factors its local block, the small R factors are combined with a
// single collective (an allgather built from one Allreduce of the
// zero-padded stack), every rank redundantly factors the P·n×n stack,
// and the explicit local Q block is assembled by one small GEMM.
//
// aLocal is overwritten with this rank's block of Q; the replicated R is
// returned. Like dist.CholQR this uses O(1) collectives; the tradeoff
// (more local flops and a P·n×n redundant factorization instead of one
// n×n Cholesky) is the reason the paper's references find Cholesky QR
// faster in practice.
func TSQR(comm Comm, aLocal *mat.Dense) *mat.Dense {
	n := aLocal.Cols
	p := comm.Size()
	rank := comm.Rank()

	// Local QR of the row block.
	local := core.HouseholderQR(nil, aLocal)

	// Allgather the per-rank R factors: each rank writes its R into its
	// segment of a zero buffer; the sum is the concatenation.
	stackData := make([]float64, p*n*n)
	base := rank * n * n
	for i := 0; i < n; i++ {
		copy(stackData[base+i*n:base+i*n+n], local.R.Data[i*local.R.Stride:i*local.R.Stride+n])
	}
	comm.AllreduceSum(stackData)

	// Redundant combine factorization of the P·n×n stack on every rank.
	stack := mat.NewDenseData(p*n, n, stackData)
	tau := make([]float64, n)
	lapack.Geqrf(nil, stack, tau)
	r := lapack.ExtractR(stack)
	lapack.Orgqr(nil, stack, tau)

	// Q_local = Q_leaf · Qs[rank-block].
	qs := stack.Slice(rank*n, (rank+1)*n, 0, n)
	blas.Gemm(nil, blas.NoTrans, blas.NoTrans, 1, local.Q, qs, 0, aLocal)
	return r
}
