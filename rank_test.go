package tsqrcp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/dist"
	"repro/mat"
	"repro/metrics"
)

// kernelBlocks returns the first count blocks of the H-matrix reproducer:
// seeded 1/|x−y| blocks, m ∈ [20, 80) target points x ∈ [0, 1) against
// n ∈ [4, 32) source points y ∈ [3, 4), where each odd-indexed point
// copies its predecessor with probability ½. Repeated points give equal
// rows or columns, so many blocks are exactly rank-deficient. Wide
// blocks are transposed, as hmatrix factors them.
func kernelBlocks(count int) []*mat.Dense {
	rng := rand.New(rand.NewSource(1))
	blocks := make([]*mat.Dense, count)
	for b := range blocks {
		xs := make([]float64, 20+rng.Intn(60))
		ys := make([]float64, 4+rng.Intn(28))
		for i := range xs {
			xs[i] = rng.Float64()
		}
		for i := range ys {
			ys[i] = 3 + rng.Float64()
		}
		for _, p := range [][]float64{xs, ys} {
			for i := 1; i < len(p); i += 2 {
				if rng.Intn(2) == 0 {
					p[i] = p[i-1]
				}
			}
		}
		a := mat.NewDense(len(xs), len(ys))
		for i, x := range xs {
			for j, y := range ys {
				a.Set(i, j, 1/math.Abs(x-y))
			}
		}
		if a.Rows < a.Cols {
			a = a.T()
		}
		blocks[b] = a
	}
	return blocks
}

// checkRankResult fails t unless f is a well-formed factorization of a
// of rank f.Rank: Q m×Rank and R Rank×n with orthogonality and residual
// at most 1e-13, and a zero matrix when the rank is 0.
func checkRankResult(t *testing.T, label string, a *mat.Dense, f *Factorization) {
	t.Helper()
	m, n := a.Rows, a.Cols
	if f.Q.Rows != m || f.Q.Cols != f.Rank || f.R.Rows != f.Rank || f.R.Cols != n || len(f.Perm) != n {
		t.Fatalf("%s: rank %d with Q %d×%d, R %d×%d, %d pivots; want Q %d×%[2]d, R %[2]d×%d",
			label, f.Rank, f.Q.Rows, f.Q.Cols, f.R.Rows, f.R.Cols, len(f.Perm), m, n)
	}
	if f.Rank == 0 {
		if a.MaxAbs() != 0 {
			t.Fatalf("%s: rank 0 for a nonzero matrix", label)
		}
		return
	}
	if o := metrics.Orthogonality(f.Q); o > 1e-13 {
		t.Fatalf("%s: rank %d orthogonality %g", label, f.Rank, o)
	}
	if r := metrics.Residual(a, f.Q, f.R, f.Perm); r > 1e-13 {
		t.Fatalf("%s: rank %d residual %g", label, f.Rank, r)
	}
}

// TestQRCPKernelBlocks: every block of the H-matrix reproducer factors
// with either strategy — the exactly rank-deficient ones at their rank —
// at roundoff orthogonality and residual. Without P-Chol-CP's noise
// floor 16 of the 200 fail: the fixed-block Cholesky breaks down on a
// pivot that was rounding noise, or the iteration fixes no pivot at all.
func TestQRCPKernelBlocks(t *testing.T) {
	blocks := kernelBlocks(200)
	for _, s := range []Strategy{StrategyIteCholQRCP, StrategyCQRRPT} {
		short := 0
		for i, a := range blocks {
			f, err := QRCP(a, &Options{Strategy: s})
			if err != nil {
				t.Fatalf("strategy %d block %d (%d×%d): %v", s, i, a.Rows, a.Cols, err)
			}
			checkRankResult(t, "kernel block", a, f)
			if f.Rank < a.Cols {
				short++
			}
		}
		if short == 0 {
			t.Fatalf("strategy %d: no block came back rank-deficient", s)
		}
	}
}

// TestQRCPRankDeficientPathsAgree: on rank-deficient input every way a
// factorization is produced — in-core, batched, out-of-core with Q
// written, and distributed on one rank — returns the same Rank, pivots,
// R bits and Q bits, and the Q file is m×Rank. Distributed on three
// ranks it returns a valid factorization with the same pivots, and the
// same Rank with R to roundoff unless noise pivots set the rank.
func TestQRCPRankDeficientPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	copies := mat.NewDense(5000, 64)
	for i := 0; i < copies.Rows; i++ {
		v := rng.NormFloat64()
		for j := 0; j < copies.Cols; j++ {
			copies.Set(i, j, v)
		}
	}
	for _, tc := range []struct {
		name string
		a    *mat.Dense
		// noiseRank: past the first pivot the copies are rounding noise,
		// and the run fixes one noise pivot per iteration until the noise
		// underflows or cancels exactly, so the rank depends on the
		// summation order.
		noiseRank bool
	}{
		{"copies of one column", copies, true},
		{"zero matrix", mat.NewDense(100, 4), false},
		{"kernel block 44", kernelBlocks(45)[44], false},
	} {
		a := tc.a
		m, n := a.Rows, a.Cols
		f, err := QRCP(a, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkRankResult(t, tc.name, a, f)
		if f.Rank == n {
			t.Fatalf("%s: full rank %d", tc.name, n)
		}
		if tc.name == "zero matrix" && f.Rank != 0 {
			t.Fatalf("zero matrix: rank %d, want 0", f.Rank)
		}
		same := func(label string, rank int, perm mat.Perm, r, q *mat.Dense) {
			t.Helper()
			if rank != f.Rank || !slices.Equal(perm, f.Perm) {
				t.Fatalf("%s %s: rank %d pivots %v, in-core rank %d pivots %v", tc.name, label, rank, perm, f.Rank, f.Perm)
			}
			sameBits(t, tc.name+" "+label+" R", r, f.R)
			sameBits(t, tc.name+" "+label+" Q", q, f.Q)
		}

		batch, err := QRCPBatch(context.Background(), []*mat.Dense{a}, nil)
		if err != nil || batch[0].Err != nil {
			t.Fatalf("%s batch: %v %v", tc.name, err, batch[0].Err)
		}
		same("batch", batch[0].F.Rank, batch[0].F.Perm, batch[0].F.R, batch[0].F.Q)

		dir := t.TempDir()
		path, qPath := filepath.Join(dir, "a.tsqrmat"), filepath.Join(dir, "q.tsqrmat")
		if err := a.WriteBinaryFile(path); err != nil {
			t.Fatal(err)
		}
		ff, err := QRCPFile(path, &FileOptions{QPath: qPath, PanelRows: 64})
		if err != nil {
			t.Fatalf("%s file: %v", tc.name, err)
		}
		if f.Rank == 0 {
			if _, err := os.Stat(qPath); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%s file: rank 0 left a Q file (stat: %v)", tc.name, err)
			}
			same("file", ff.Rank, ff.Perm, ff.R, f.Q)
		} else {
			q, err := mat.ReadBinaryFile(qPath)
			if err != nil {
				t.Fatalf("%s file: %v", tc.name, err)
			}
			same("file", ff.Rank, ff.Perm, ff.R, q) // the Q file is m×Rank
		}

		for _, p := range []int{1, 3} {
			l := dist.Layout{M: m, P: p}
			results := make([]*dist.QRCPResult, p)
			dist.Run(p, func(c dist.Comm) {
				lo, hi := l.RowRange(c.Rank())
				res, err := dist.IteCholQRCP(c, a.RowSlice(lo, hi), DefaultPivotTol)
				if err != nil {
					t.Errorf("%s P=%d rank %d: %v", tc.name, p, c.Rank(), err)
					return
				}
				results[c.Rank()] = res
			})
			if t.Failed() {
				t.FailNow()
			}
			got := results[0]
			q := mat.NewDense(m, got.Rank)
			for r, res := range results {
				lo, hi := l.RowRange(r)
				q.Slice(lo, hi, 0, got.Rank).Copy(res.QLocal)
			}
			if p == 1 {
				same("dist P=1", got.Rank, got.Perm, got.R, q)
				continue
			}
			// Three ranks sum each Gram in another order, so the bits move
			// by roundoff.
			checkRankResult(t, tc.name+" dist P=3", a, &Factorization{Q: q, R: got.R, Perm: got.Perm, Rank: got.Rank})
			if !slices.Equal(got.Perm, f.Perm) || got.Rank == n {
				t.Fatalf("%s dist P=3: rank %d pivots %v, in-core rank %d pivots %v", tc.name, got.Rank, got.Perm, f.Rank, f.Perm)
			}
			if !tc.noiseRank && (got.Rank != f.Rank || !mat.EqualApprox(got.R, f.R, 1e-13*f.R.MaxAbs())) {
				t.Fatalf("%s dist P=3: rank %d, in-core %d, or R beyond roundoff of in-core", tc.name, got.Rank, f.Rank)
			}
		}
	}
}
