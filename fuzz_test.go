package tsqrcp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/mat"
)

// fuzzBlockShape selects the H-matrix reproducer's block seed%200 as the
// base matrix instead of a Gaussian one.
const fuzzBlockShape = 255

// fuzzMatrix builds FuzzQRCPRank's input. A shape byte other than
// fuzzBlockShape gives a tiny tall Gaussian matrix drawn from seed:
// n = 1 + shape%8 columns and n ≤ m ≤ 4n rows. Then each triple of ops
// (op, column c, argument x) edits one column: op%3 = 0 zeroes column c,
// 1 overwrites it with a copy of column x%n, and 2 rescales it by
// 2^(x%64 − 32), exactly. At most 16 triples are read.
func fuzzMatrix(shape uint8, seed int64, ops []byte) *mat.Dense {
	var a *mat.Dense
	if shape == fuzzBlockShape {
		idx := int(uint64(seed) % 200)
		a = kernelBlocks(idx + 1)[idx]
	} else {
		n := 1 + int(shape%8)
		a = mat.NewDense(n+int(shape/8)%(3*n+1), n)
		rng := rand.New(rand.NewSource(seed))
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
	}
	n := a.Cols
	for i := 0; i+2 < len(ops) && i < 3*16; i += 3 {
		c, x := int(ops[i+1])%n, ops[i+2]
		for r := 0; r < a.Rows; r++ {
			row := a.Row(r)
			switch ops[i] % 3 {
			case 0:
				row[c] = 0
			case 1:
				row[c] = row[int(x)%n]
			case 2:
				row[c] = math.Ldexp(row[c], int(x%64)-32)
			}
		}
	}
	return a
}

// FuzzQRCPRank: QRCP on small tall matrices with zeroed, repeated and
// rescaled columns never panics or hangs, fails only with ErrBreakdown,
// and otherwise returns Q m×Rank and R Rank×n at roundoff orthogonality
// and residual (rank 0 only for a zero matrix).
func FuzzQRCPRank(f *testing.F) {
	// The zero matrix: an 8×4 Gaussian with every column zeroed.
	f.Add(uint8(3+8*4), int64(1), []byte{0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0})
	// One column repeated: column 0 copied over the other seven of 20×8.
	f.Add(uint8(7+8*12), int64(2), []byte{1, 1, 0, 1, 2, 0, 1, 3, 0, 1, 4, 0, 1, 5, 0, 1, 6, 0, 1, 7, 0})
	// Reproducer block 44 (26×22): repeated points, rank 18.
	f.Add(uint8(fuzzBlockShape), int64(44), []byte(nil))
	f.Fuzz(func(t *testing.T, shape uint8, seed int64, ops []byte) {
		a := fuzzMatrix(shape, seed, ops)
		fac, err := QRCP(a, nil)
		if err != nil {
			if !errors.Is(err, ErrBreakdown) {
				t.Fatalf("%d×%d: error %v, want nil or ErrBreakdown", a.Rows, a.Cols, err)
			}
			return
		}
		checkRankResult(t, "fuzzed matrix", a, fac)
	})
}
