//go:build amd64 && !purego

package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/mat"
)

// The differential test of the AVX2 kernels: each assembly entry point,
// and each kernel built on it, must reproduce the Go reference loops bit
// for bit (NaN matching any NaN), on every tile width and the ragged
// columns the Go loop takes over, on strided views, and on inputs
// holding ±Inf and NaN.

var quadTestNs = []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 63, 64, 65, 129}

func requireAVX2(t *testing.T) {
	t.Helper()
	if !useAVX2 {
		t.Skip("CPU without AVX2: the Go loops run on this machine")
	}
}

// quadFill returns count normal entries; with specials set, about one in
// eight is +Inf, -Inf or NaN.
func quadFill(rng *rand.Rand, count int, specials bool) []float64 {
	s := make([]float64, count)
	for i := range s {
		s[i] = rng.NormFloat64()
		if specials && rng.Intn(8) == 0 {
			s[i] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
		}
	}
	return s
}

func requireSameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameFloatBits(got[i], want[i]) {
			t.Fatalf("%s: element %d: AVX2 %v (%#x), Go %v (%#x)", label, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// tileCases are the tile widths the assembly takes, plus ragged ones
// whose 1–3 last columns the dispatchers hand to the Go loop.
var tileCases = []int{1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15}

func TestTileTNAVX2MatchesGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(71))
	for _, nc := range tileCases {
		for _, k := range []int{1, 2, 3, 7, 64} {
			for _, specials := range []bool{false, true} {
				lda, ldb, ldc := 4+3, nc+2, nc+5
				a := quadFill(rng, (k-1)*lda+4, specials)
				b := quadFill(rng, (k-1)*ldb+nc, specials)
				c0 := quadFill(rng, 3*ldc+nc, specials)
				for _, upper := range []bool{false, true} {
					want := append([]float64(nil), c0...)
					tileTNGo(want, ldc, a, lda, b, ldb, k, 4, nc, upper)
					got := append([]float64(nil), c0...)
					tileTN(got, ldc, a, lda, b, ldb, k, 4, nc, upper)
					requireSameBits(t, fmt.Sprintf("tileTN nc=%d k=%d upper=%v", nc, k, upper), got, want)
				}
			}
		}
	}
}

func TestTileNNAVX2MatchesGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(72))
	for _, nc := range tileCases {
		for _, k := range []int{1, 2, 3, 7, 64} {
			for _, specials := range []bool{false, true} {
				ldv, ldb, ldc := k+3, nc+2, nc+5
				v := quadFill(rng, 3*ldv+k, specials)
				b := quadFill(rng, (k-1)*ldb+nc, specials)
				c0 := quadFill(rng, 3*ldc+nc, specials)
				want := append([]float64(nil), c0...)
				tileNNGo(want, ldc, v, ldv, b, ldb, k, 4, nc)
				got := append([]float64(nil), c0...)
				tileNN(got, ldc, v, ldv, b, ldb, k, 4, nc)
				requireSameBits(t, fmt.Sprintf("tileNN nc=%d k=%d", nc, k), got, want)
			}
		}
	}
}

func TestTrsmTileAVX2MatchesGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(75))
	for _, n := range quadTestNs {
		for _, specials := range []bool{false, true} {
			ldx := n + 3
			x0 := quadFill(rng, 3*ldx+n, specials)
			r := randUpperWellCond(rng, n)
			inv := make([]float64, n)
			for k := range inv {
				inv[k] = 1 / r.At(k, k)
			}
			want := append([]float64(nil), x0...)
			got := append([]float64(nil), x0...)
			for j0 := 0; j0 < n; {
				nc := tileWidth(n - j0)
				trsmColsGo(want, ldx, 4, r.Data, r.Stride, inv, j0, j0+nc)
				trsmTile(got, ldx, 4, r.Data, r.Stride, inv, j0, nc)
				requireSameBits(t, fmt.Sprintf("trsmTile n=%d j0=%d", n, j0), got, want)
				j0 += nc
			}
		}
	}
}

// scatterTestWeights holds the weights every scatter case draws from,
// signed zeros and the IEEE specials among them.
var scatterTestWeights = []float64{
	0.5, -1.25, 1 / math.Sqrt(8), -1 / math.Sqrt(8), 0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1), math.NaN(), 3e300, -7e-310,
}

func TestScatterRowsAVX2MatchesGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(74))
	const rows = 9
	targetSets := [][]int{
		{0}, {8}, {5, 0, 8, 3}, {2, 2, 7, 2}, {8, 7, 6, 5, 4, 3, 2, 1, 0}, {4, 1, 4, 1, 0, 0},
	}
	for _, n := range quadTestNs {
		for _, specials := range []bool{false, true} {
			accStride := n + 5
			acc0 := quadFill(rng, (rows-1)*accStride+n, specials)
			row := quadFill(rng, n, specials)
			if specials && n >= 3 {
				row[0], row[1] = 0, math.Copysign(0, -1)
			}
			for _, ts := range targetSets {
				w := make([]float64, len(ts))
				for k := range w {
					w[k] = scatterTestWeights[rng.Intn(len(scatterTestWeights))]
				}
				want := append([]float64(nil), acc0...)
				scatterRowsGo(want, accStride, row, ts, w)
				got := append([]float64(nil), acc0...)
				scatterRowsAVX2(&got[0], accStride, &row[0], n, &ts[0], &w[0], len(ts))
				requireSameBits(t, "scatterRows", got, want)
				got = append(got[:0], acc0...)
				scatterRows(got, accStride, row, ts, w)
				requireSameBits(t, "scatterRows dispatch", got, want)
			}
		}
	}
}

// TestScatterRowsOutOfBoundsFallsBack checks the dispatch guard: a target
// row outside acc must reach the Go loop, whose bounds check panics,
// instead of the assembly writing past the slice. A zero stride puts
// every target on row 0.
func TestScatterRowsOutOfBoundsFallsBack(t *testing.T) {
	requireAVX2(t)
	const n, rows = 8, 4
	row := make([]float64, n)
	for _, tc := range []struct {
		name      string
		accLen    int
		accStride int
		targets   []int
		panics    bool
	}{
		{"past the last row", (rows-1)*n + n, n, []int{1, rows}, true},
		{"negative target", rows * n, n, []int{-1, 2}, true},
		{"last row short", (rows-1)*n + n - 1, n, []int{rows - 1}, true},
		{"zero stride", n, 0, []int{0, 3, 3}, false},
	} {
		acc := make([]float64, tc.accLen)
		w := make([]float64, len(tc.targets))
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			scatterRows(acc, tc.accStride, row, tc.targets, w)
			return false
		}()
		if panicked != tc.panics {
			t.Errorf("%s: panicked = %v, want %v", tc.name, panicked, tc.panics)
		}
	}
}

// TestFusedKernelsAVX2MatchGo runs the kernels built on the tiles (the
// left-looking TRSM, the Gram accumulation, Gemm A·B, Aᵀ·B and A·Bᵀ, and
// SyrkUpperTrans) on Slice'd views (Stride > Cols) whose row counts leave
// 1–3 rows after the last 4-row block, once on the assembly and once on
// the Go loops. With specials set the inputs also hold signed
// zeros.
func TestFusedKernelsAVX2MatchGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(73))
	for _, n := range quadTestNs {
		for _, m := range []int{4, 9, 14, 19, 70} {
			for _, specials := range []bool{false, true} {
				big := mat.NewDense(m+2, n+3)
				copy(big.Data, quadFill(rng, len(big.Data), specials))
				if specials {
					for i := 0; i < len(big.Data); i += 7 {
						big.Data[i] = math.Copysign(0, float64(i%2)-0.5)
					}
				}
				b := big.Slice(1, 1+m, 2, 2+n)
				r := randUpperWellCond(rng, n)

				for _, k := range []struct {
					name string
					run  func() *mat.Dense
				}{
					{"fusedTrsmRange", func() *mat.Dense {
						x := b.Clone()
						fusedTrsmRange(x, r, 0, m)
						return x
					}},
					{"fusedSyrkCols", func() *mat.Dense {
						acc := mat.NewDense(n, n)
						fusedSyrkCols(b, 0, m, 0, n, acc)
						return acc
					}},
					{"Gemm NN", func() *mat.Dense {
						c := b.Clone()
						Gemm(nil, NoTrans, NoTrans, -1.25, b, r, 1, c)
						return c
					}},
					{"Gemm TN", func() *mat.Dense {
						c := r.Clone()
						Gemm(nil, Trans, NoTrans, -1.25, b, b, 1, c)
						return c
					}},
					{"Gemm NT", func() *mat.Dense {
						c := mat.NewDense(m, m)
						Gemm(nil, NoTrans, Trans, -1.25, b, b, 1, c)
						return c
					}},
					{"SyrkUpperTrans", func() *mat.Dense {
						c := r.Clone()
						SyrkUpperTrans(nil, b, c)
						return c
					}},
				} {
					got := k.run()
					var want *mat.Dense
					withGoKernels(func() { want = k.run() })
					requireSameBits(t, fmt.Sprintf("%s m=%d n=%d", k.name, m, n), got.Data, want.Data)
				}
			}
		}
	}
}
