package sketch

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/parallel"
	"repro/mat"
)

// sketchGolden pins the bits of ApplySparse: FNV-64a of the d = 2n sketch
// of an exact LCG-filled m×n view, at DefaultNNZ and seed 7. 1000×16 is
// one reduction slot; 40000×32 is the full fan-out of 16 slots; 5000×64
// (d = 128) takes targets past the 64-bit duplicate mask; 3000×13 has an
// odd width and an even d = 26 that is no power of two. The
// inputs are integers times 2⁻⁵², so they are the same bits on every
// build, and so must the sketch be at every engine width.
var sketchGolden = []struct {
	m, n int
	hash string
}{
	{1000, 16, "6dd8254a64b323a4"},
	{40000, 32, "f570b3a2a7b82c69"},
	{5000, 64, "dc1f2029ba8cf01d"},
	{3000, 13, "e9f6cd89601e7d2e"},
}

// lcgDense fills an m×n view (Stride > Cols) with exact values in
// [−1, 1) from a 64-bit LCG: k·2⁻⁵² for a 53-bit signed integer k.
func lcgDense(m, n int) *mat.Dense {
	state := uint64(2024)
	big := mat.NewDense(m, n+3)
	for i := range big.Data {
		state = state*6364136223846793005 + 1442695040888963407
		big.Data[i] = float64(int64(state>>11)-1<<52) * 0x1p-52
	}
	return big.Slice(0, m, 1, 1+n)
}

func sketchHash(sa *mat.Dense) string {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < sa.Rows; i++ {
		for _, v := range sa.Data[i*sa.Stride : i*sa.Stride+sa.Cols] {
			b := math.Float64bits(v)
			for k := range buf {
				buf[k] = byte(b >> (8 * k))
			}
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestApplySparseGoldenHashes(t *testing.T) {
	for _, g := range sketchGolden {
		a := lcgDense(g.m, g.n)
		for _, w := range []int{1, 2} {
			sa := mat.NewDense(2*g.n, g.n)
			ApplySparse(parallel.NewEngine(w), sa, a, DefaultNNZ, 7)
			if got := sketchHash(sa); got != g.hash {
				t.Errorf("%d×%d width %d: sketch hash %s, golden %s", g.m, g.n, w, got, g.hash)
			}
		}
	}
}
