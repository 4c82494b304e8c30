package dist

import (
	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/mat"
)

// CholQR2 computes the distributed thin QR factorization with one
// reorthogonalization pass (CholeskyQR2): two Gram Allreduces total.
// aLocal is overwritten with the local Q block; the replicated R is
// returned.
func CholQR2(comm Comm, aLocal *mat.Dense) (*mat.Dense, error) {
	r1, err := CholQR(comm, aLocal)
	if err != nil {
		return nil, err
	}
	r2, err := CholQR(comm, aLocal)
	if err != nil {
		return nil, err
	}
	blas.TrmmLeftUpperNoTrans(r2, r1)
	return r1, nil
}

// QRThenQRCP is the distributed Cunha–Patterson comparator (§V): a
// distributed TSQR produces A = Q₀·R₀ with one collective, every rank
// redundantly runs the small Householder QRCP on the replicated n×n R₀,
// and one local GEMM assembles the Q block. Two collectives total — also
// communication-avoiding, but the whole unpivoted QR must complete before
// the first pivot is known.
func QRThenQRCP(comm Comm, aLocal *mat.Dense) *QRCPResult {
	n := aLocal.Cols
	q0 := aLocal.Clone()
	r0 := TSQR(comm, q0)
	// Replicated small QRCP of R₀ (deterministic: same bits everywhere).
	tau := make([]float64, n)
	jpvt := make(mat.Perm, n)
	lapack.Geqp3(nil, r0, tau, jpvt)
	r := lapack.ExtractR(r0)
	lapack.Orgqr(nil, r0, tau) // r0 is now the n×n Q₁
	qLocal := mat.NewDense(aLocal.Rows, n)
	blas.Gemm(nil, blas.NoTrans, blas.NoTrans, 1, q0, r0, 0, qLocal)
	return &QRCPResult{QLocal: qLocal, R: r, Perm: jpvt}
}
