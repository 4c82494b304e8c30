//go:build amd64 && !purego

package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/mat"
)

// The differential test of the assembly kernels: each AVX2 and AVX-512
// entry point, and each kernel built on them, must reproduce the Go
// reference loops bit for bit (NaN matching any NaN), on every tile
// width and the ragged columns, on strided views, and on inputs holding
// ±Inf and NaN. The AVX2 tests force the ymm tiles (withAVX2Kernels), so
// they cover them on CPUs that run the zmm tiles too.

var quadTestNs = []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 63, 64, 65, 129}

func requireAVX2(t *testing.T) {
	t.Helper()
	if !useAVX2 {
		t.Skip("CPU without AVX2: the Go loops run on this machine")
	}
}

func requireAVX512(t *testing.T) {
	t.Helper()
	if !useAVX512 {
		t.Skip("CPU without AVX512F/AVX512VL (or OS without ZMM state): the zmm tiles do not run on this machine")
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
			t.Fatalf("%s: element %d: assembly %v (%#x), Go %v (%#x)", label, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// tileCases are the tile widths the ymm assembly takes, ragged ones
// whose 1–3 last columns the dispatchers hand to the Go loop, and the
// wider ones of the zmm tiles, which the ymm dispatch takes 12 columns a
// call.
var tileCases = []int{1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 23, 24}

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
					withAVX2Kernels(func() { tileTN(got, ldc, a, lda, b, ldb, k, 4, nc, upper) })
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
				withAVX2Kernels(func() { tileNN(got, ldc, v, ldv, b, ldb, k, 4, nc) })
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
			for _, wide := range []bool{false, true} {
				want := append([]float64(nil), x0...)
				got := append([]float64(nil), x0...)
				withAVX2Kernels(func() {
					for j0 := 0; j0 < n; {
						nc := tileWidth(n - j0)
						if wide {
							nc = min(n-j0, 24)
						}
						trsmColsGo(want, ldx, 4, r.Data, r.Stride, inv, j0, j0+nc)
						trsmTile(got, ldx, 4, r.Data, r.Stride, inv, j0, nc)
						requireSameBits(t, fmt.Sprintf("trsmTile n=%d j0=%d nc=%d", n, j0, nc), got, want)
						j0 += nc
					}
				})
			}
		}
	}
}

// zmmTileCases are column counts of the zmm tiles, from a single lane to
// three full vectors; the ragged ones take a masked last vector.
var zmmTileCases = []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 20, 23, 24}

// requireLowerUntouched checks that an upper tile left the entries below
// its diagonal (row s, column j < s) of the 8-row tile at c as they were.
func requireLowerUntouched(t *testing.T, label string, got, c0 []float64, ldc, nc int) {
	t.Helper()
	for s := 1; s < 8; s++ {
		for j := 0; j < min(s, nc); j++ {
			if i := s*ldc + j; !sameFloatBits(got[i], c0[i]) {
				t.Fatalf("%s: upper tile wrote C[%d][%d] below the diagonal", label, s, j)
			}
		}
	}
}

func TestTileTNAVX512MatchesGo(t *testing.T) {
	requireAVX512(t)
	rng := rand.New(rand.NewSource(76))
	for _, nc := range zmmTileCases {
		for _, k := range []int{1, 2, 3, 7, 64} {
			for _, specials := range []bool{false, true} {
				lda, ldb, ldc := 8+3, nc+2, nc+5
				a := quadFill(rng, (k-1)*lda+8, specials)
				b := quadFill(rng, (k-1)*ldb+nc, specials)
				c0 := quadFill(rng, 7*ldc+nc, specials)
				for _, upper := range []bool{false, true} {
					label := fmt.Sprintf("tileTN nc=%d k=%d upper=%v", nc, k, upper)
					want := append([]float64(nil), c0...)
					tileTNGo(want, ldc, a, lda, b, ldb, k, 8, nc, upper)
					got := append([]float64(nil), c0...)
					tileTNAVX512(&got[0], ldc, &a[0], lda, &b[0], ldb, k, nc, upper)
					requireSameBits(t, label, got, want)
					if upper {
						requireLowerUntouched(t, label, got, c0, ldc, nc)
					}
					got = append(got[:0], c0...)
					tileTN(got, ldc, a, lda, b, ldb, k, 8, nc, upper)
					requireSameBits(t, label+" dispatch", got, want)
				}
			}
		}
	}
}

func TestTileNNAVX512MatchesGo(t *testing.T) {
	requireAVX512(t)
	rng := rand.New(rand.NewSource(77))
	for _, nc := range zmmTileCases {
		for _, k := range []int{1, 2, 3, 7, 64} {
			for _, specials := range []bool{false, true} {
				ldv, ldb, ldc := k+3, nc+2, nc+5
				v := quadFill(rng, 7*ldv+k, specials)
				b := quadFill(rng, (k-1)*ldb+nc, specials)
				c0 := quadFill(rng, 7*ldc+nc, specials)
				label := fmt.Sprintf("tileNN nc=%d k=%d", nc, k)
				want := append([]float64(nil), c0...)
				tileNNGo(want, ldc, v, ldv, b, ldb, k, 8, nc)
				got := append([]float64(nil), c0...)
				tileNNAVX512(&got[0], ldc, &v[0], ldv, &b[0], ldb, k, nc)
				requireSameBits(t, label, got, want)
				got = append(got[:0], c0...)
				tileNN(got, ldc, v, ldv, b, ldb, k, 8, nc)
				requireSameBits(t, label+" dispatch", got, want)
			}
		}
	}
}

// TestTrsmTileAVX512MatchesGo solves eight rows tile by tile, the tiles
// cut by tileWidth and, separately, all 24 columns wide, so every width
// meets every offset j0 the ragged n give.
func TestTrsmTileAVX512MatchesGo(t *testing.T) {
	requireAVX512(t)
	rng := rand.New(rand.NewSource(78))
	for _, n := range append(quadTestNs, 23, 24, 25, 40, 48) {
		for _, specials := range []bool{false, true} {
			ldx := n + 3
			x0 := quadFill(rng, 7*ldx+n, specials)
			r := randUpperWellCond(rng, n)
			inv := make([]float64, n)
			for k := range inv {
				inv[k] = 1 / r.At(k, k)
			}
			for _, width := range []func(rem int) int{tileWidth, func(rem int) int { return min(rem, 24) }} {
				want := append([]float64(nil), x0...)
				got := append([]float64(nil), x0...)
				viaDispatch := append([]float64(nil), x0...)
				for j0 := 0; j0 < n; {
					nc := width(n - j0)
					label := fmt.Sprintf("trsmTile n=%d j0=%d nc=%d", n, j0, nc)
					trsmColsGo(want, ldx, 8, r.Data, r.Stride, inv, j0, j0+nc)
					trsmTileAVX512(&got[0], ldx, &r.Data[0], r.Stride, &inv[0], j0, nc)
					requireSameBits(t, label, got, want)
					trsmTile(viaDispatch, ldx, 8, r.Data, r.Stride, inv, j0, nc)
					requireSameBits(t, label+" dispatch", viaDispatch, want)
					j0 += nc
				}
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

// TestSignRowsAVXMatchesGo runs the zmm and the ymm sign-matrix product
// and their dispatch on the same inputs as the Go loop, every width of
// quadTestNs (masked zmm tails, 64-column chunks, ymm 16/4/1 columns),
// with every weight of scatterTestWeights, on strided rows holding ±Inf
// and NaN, with empty masks and masks reaching B's 64th row.
func TestSignRowsAVXMatchesGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(75))
	const count, bRows = 9, 64
	for _, n := range quadTestNs {
		for _, specials := range []bool{false, true} {
			ldc, ldb := n+5, n+2
			c0 := quadFill(rng, (count-1)*ldc+n, specials)
			b := quadFill(rng, (bRows-1)*ldb+n, specials)
			// The zmm product takes rows in pairs: the first in a pair
			// empty, the second empty, both full, one running out first,
			// and a last row on its own.
			rows := []uint64{0, rng.Uint64(), rng.Uint64(), 0, 1 << 63, rng.Uint64() & rng.Uint64(), 1,
				rng.Uint64() | 1, rng.Uint64()}
			neg := make([]uint64, count)
			for i := range neg {
				neg[i] = rng.Uint64()
			}
			neg[3], neg[6] = 0, ^uint64(0)
			wv := scatterTestWeights[rng.Intn(len(scatterTestWeights))]
			w := [2]float64{wv, -wv}
			want := append([]float64(nil), c0...)
			signRowsGo(want, ldc, b, ldb, n, rows, neg, &w)
			kernels := []struct {
				label string
				run   func(c []float64)
			}{
				{"signRowsAVX2", func(c []float64) {
					signRowsAVX2(&c[0], ldc, &b[0], ldb, n, &rows[0], &neg[0], &w, count)
				}},
				{"signRows dispatch", func(c []float64) { signRows(c, ldc, b, ldb, n, rows, neg, &w) }},
				{"signRows ymm dispatch", func(c []float64) {
					withAVX2Kernels(func() { signRows(c, ldc, b, ldb, n, rows, neg, &w) })
				}},
			}
			if useAVX512 {
				kernels = append(kernels, struct {
					label string
					run   func(c []float64)
				}{"signRowsAVX512", func(c []float64) {
					signRowsAVX512(&c[0], ldc, &b[0], ldb, n, &rows[0], &neg[0], &w, count)
				}})
			}
			for _, k := range kernels {
				got := append([]float64(nil), c0...)
				k.run(got)
				requireSameBits(t, fmt.Sprintf("%s n=%d specials=%v w=%v", k.label, n, specials, wv), got, want)
			}
		}
	}
}

// TestSignRowsOutOfBoundsFallsBack checks the dispatch guard: a bit
// naming a row outside b, or an output row outside c, must reach the Go
// loop, whose bounds checks panic, instead of the assembly reading or
// writing past a slice.
func TestSignRowsOutOfBoundsFallsBack(t *testing.T) {
	requireAVX2(t)
	const n, bRows = 8, 4
	w := [2]float64{1, -1}
	for _, tc := range []struct {
		name   string
		cLen   int
		rows   []uint64
		panics bool
	}{
		{"bit past the last row", 2 * n, []uint64{1, 1 << bRows}, true},
		{"top bit", 2 * n, []uint64{1 << 63, 0}, true},
		{"last output row short", 2*n - 1, []uint64{1, 1}, true},
		{"last input row", 2 * n, []uint64{1 << (bRows - 1), 0}, false},
	} {
		c := make([]float64, tc.cLen)
		b := make([]float64, bRows*n)
		neg := make([]uint64, len(tc.rows))
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			signRows(c, n, b, n, n, tc.rows, neg, &w)
			return false
		}()
		if panicked != tc.panics {
			t.Errorf("%s: panicked = %v, want %v", tc.name, panicked, tc.panics)
		}
	}
}

// TestFusedKernelsAVX2MatchGo runs the kernels built on the tiles (the
// left-looking TRSM, the fused pass with its column gather, the Gram
// accumulation, Gemm A·B, Aᵀ·B and A·Bᵀ, and SyrkUpperTrans) on Slice'd
// views (Stride > Cols) whose row counts leave ragged rows after the
// last 4- and 8-row blocks, on the default tiles (zmm where they run),
// on the ymm tiles and on the Go loops. With specials set the inputs
// also hold signed zeros.
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
				perm := gatherTestPerm(rng, n, n/4)

				for _, k := range []struct {
					name string
					run  func() *mat.Dense
				}{
					{"fusedTrsmRange", func() *mat.Dense {
						x := b.Clone()
						fusedTrsmRange(x, r, 0, m)
						return x
					}},
					{"PermTrsmGramFused", func() *mat.Dense {
						x := b.Clone()
						PermTrsmGramFused(parallel.Default, x, perm, r, mat.NewDense(n, n))
						return x
					}},
					{"fusedSyrkCols", func() *mat.Dense {
						acc := mat.NewDense(n, n)
						fusedSyrkCols(b, 0, m, 0, n, acc)
						return acc
					}},
					{"Gemm NN", func() *mat.Dense {
						c := b.Clone()
						Gemm(parallel.Default, NoTrans, NoTrans, -1.25, b, r, 1, c)
						return c
					}},
					{"Gemm TN", func() *mat.Dense {
						c := r.Clone()
						Gemm(parallel.Default, Trans, NoTrans, -1.25, b, b, 1, c)
						return c
					}},
					{"Gemm NT", func() *mat.Dense {
						c := mat.NewDense(m, m)
						Gemm(parallel.Default, NoTrans, Trans, -1.25, b, b, 1, c)
						return c
					}},
					{"SyrkUpperTrans", func() *mat.Dense {
						c := r.Clone()
						SyrkUpperTrans(parallel.Default, b, c)
						return c
					}},
				} {
					got := k.run()
					var want, gotAVX2 *mat.Dense
					withGoKernels(func() { want = k.run() })
					withAVX2Kernels(func() { gotAVX2 = k.run() })
					label := fmt.Sprintf("%s m=%d n=%d", k.name, m, n)
					requireSameBits(t, label, got.Data, want.Data)
					requireSameBits(t, label+" ymm", gotAVX2.Data, want.Data)
				}
			}
		}
	}
}

// gatherTestPerm returns a permutation of length n that fixes the
// columns j < p0 and moves column p0 whenever it can.
func gatherTestPerm(rng *rand.Rand, n, p0 int) mat.Perm {
	p := mat.IdentityPerm(n)
	tail := p[p0:]
	rng.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
	if len(tail) > 1 && tail[0] == p0 {
		tail[0], tail[1] = tail[1], tail[0]
	}
	return p
}

// TestGatherRowsMatchesGo runs the column gather of the fused pass on
// the zmm kernel and on the Go loop over every width of quadTestNs and
// the three-chunk width 130, with p0 ∈ {0, 1, n/2, n−1} fixed leading
// columns and with a nil perm, in place and out of place (out of place
// also on column maps with repeated indices), on Slice'd views
// (Stride > Cols), in blocks of fusedBlockRows rows as fusedSlotRange
// calls it, so the row counts leave ragged blocks.
func TestGatherRowsMatchesGo(t *testing.T) {
	requireAVX512(t)
	rng := rand.New(rand.NewSource(79))
	for _, n := range append(quadTestNs, 130) {
		perms := []mat.Perm{nil}
		var maps []mat.Perm
		for _, p0 := range []int{0, 1, n / 2, n - 1} {
			perms = append(perms, gatherTestPerm(rng, n, p0))
			p := mat.IdentityPerm(n)
			for j := p0; j < n; j++ {
				p[j] = rng.Intn(n)
			}
			maps = append(maps, p)
		}
		for _, m := range []int{1, 7, 70, 131} {
			srcBig := mat.NewDense(m+2, n+3)
			copy(srcBig.Data, quadFill(rng, len(srcBig.Data), true))
			dstBig := mat.NewDense(m+1, n+5)
			copy(dstBig.Data, quadFill(rng, len(dstBig.Data), false))
			check := func(p mat.Perm, inPlace bool) {
				// run returns the gathered storage: srcBig's copy in
				// place, dstBig's out of place.
				run := func() (*mat.Dense, *mat.Dense) {
					sb, db := srcBig.Clone(), dstBig.Clone()
					s, d := sb.Slice(1, 1+m, 2, 2+n), db.Slice(1, 1+m, 1, 1+n)
					if inPlace {
						d, db = s, sb
					}
					tmp := make([]float64, n)
					for q := 0; q < m; q += fusedBlockRows {
						gatherRows(d, s, p, q, min(q+fusedBlockRows, m), tmp)
					}
					return db, sb
				}
				got, gotSrc := run()
				var want *mat.Dense
				withGoKernels(func() { want, _ = run() })
				label := fmt.Sprintf("gatherRows n=%d m=%d perm=%v inPlace=%v", n, m, p, inPlace)
				requireSameBits(t, label, got.Data, want.Data)
				if !inPlace {
					requireSameBits(t, label+" src", gotSrc.Data, srcBig.Data)
				}
			}
			for _, p := range perms {
				check(p, true)
				check(p, false)
			}
			for _, p := range maps {
				check(p, false)
			}
		}
	}
}

// TestGatherRowsOutOfRangeFallsBack checks the dispatch guard of
// gatherRows' column gather: an index outside [0, n) or a row past the
// end of either slice must reach the Go loop, whose bounds checks panic,
// instead of the assembly reading or writing past the slice. It calls
// the dispatcher itself, since out of place gatherRows' prefix copy
// slices every source row first.
func TestGatherRowsOutOfRangeFallsBack(t *testing.T) {
	requireAVX512(t)
	const n, rows = 8, 4
	shuffled := mat.Perm{0, 3, 1, 2, 7, 6, 5, 4}
	for _, tc := range []struct {
		name    string
		perm    mat.Perm
		dstLen  int
		srcLen  int
		inPlace bool
		panics  bool
	}{
		{"index n", mat.Perm{0, 1, 8, 3, 4, 5, 6, 2}, rows * n, rows * n, false, true},
		{"negative index", mat.Perm{0, -1, 2, 3, 4, 5, 6, 1}, rows * n, rows * n, false, true},
		{"index n in place", mat.Perm{0, 1, 8, 3, 4, 5, 6, 2}, rows * n, rows * n, true, true},
		{"last dst row short", shuffled, rows*n - 1, rows * n, false, true},
		{"last src row short", shuffled, rows * n, rows*n - 1, false, true},
		{"last row short in place", shuffled, rows*n - 1, rows*n - 1, true, true},
		{"in range", shuffled, rows * n, rows * n, false, false},
		{"in range in place", shuffled, rows * n, rows * n, true, false},
	} {
		dst := &mat.Dense{Rows: rows, Cols: n, Stride: n, Data: make([]float64, tc.dstLen)}
		src := &mat.Dense{Rows: rows, Cols: n, Stride: n, Data: make([]float64, tc.srcLen)}
		if tc.inPlace {
			src = dst
		}
		tmp := make([]float64, n)
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			gatherCols(dst, src, tc.perm, 0, 0, rows, tmp)
			return false
		}()
		if panicked != tc.panics {
			t.Errorf("%s: panicked = %v, want %v", tc.name, panicked, tc.panics)
		}
	}
}
