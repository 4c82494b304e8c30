package blas

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/mat"
)

// The golden kernel hashes: FNV-64a of the output bits of Gram,
// TrsmRightUpperNoTrans, PermTrsmGramFused, Gemm NN/TN,
// TrmmLeftUpperNoTrans and TrsmLeftUpperTrans on fixed inputs, checked
// into testdata. Every build must reproduce them — the assembly, the
// purego Go loops, and other architectures, whose Go loops run the same
// explicit math.FMA chains. The inputs come from integer
// arithmetic and exact scalings only, so they too are the same bits
// everywhere. A change that moves a kernel's bits must regenerate the
// file on purpose:
//
//	go test ./internal/blas -run GoldenHashes -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/kernel_hashes.txt")

const goldenPath = "testdata/kernel_hashes.txt"

// goldenDense fills an r×c view (Stride > Cols) with exact values in
// [−1, 1) from a 64-bit LCG: k·2⁻⁵² for a 53-bit signed integer k.
func goldenDense(state *uint64, r, c int) *mat.Dense {
	big := mat.NewDense(r+1, c+2)
	for i := range big.Data {
		*state = *state*6364136223846793005 + 1442695040888963407
		big.Data[i] = float64(int64(*state>>11)-1<<52) * 0x1p-52
	}
	return big.Slice(1, 1+r, 1, 1+c)
}

// goldenUpper is a well-conditioned upper triangular R: diagonal in
// [1.5, 2.5), off-diagonal entries scaled by 2⁻⁶.
func goldenUpper(state *uint64, n int) *mat.Dense {
	v := goldenDense(state, n, n)
	r := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		r.Set(i, i, 2+v.At(i, i)/2)
		for j := i + 1; j < n; j++ {
			r.Set(i, j, v.At(i, j)*0x1p-6)
		}
	}
	return r
}

func denseHash(d *mat.Dense) string {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			b := math.Float64bits(d.At(i, j))
			for k := range buf {
				buf[k] = byte(b >> (8 * k))
			}
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenHashes runs every hashed kernel on its fixed inputs.
func goldenHashes() [][2]string {
	state := uint64(2024)
	e := parallel.NewEngine(2)
	var out [][2]string
	add := func(name string, d *mat.Dense) { out = append(out, [2]string{name, denseHash(d)}) }

	a := goldenDense(&state, 2*fusedMinSlotRows+811, 37)
	w := mat.NewDense(37, 37)
	Gram(e, w, a)
	add("Gram/4907x37", w)

	x := goldenDense(&state, 517, 37)
	r := goldenUpper(&state, 37)
	TrsmRightUpperNoTrans(e, x, r)
	add("TrsmRightUpperNoTrans/517x37", x)

	b := goldenDense(&state, 2*fusedMinSlotRows+811, 64)
	r64 := goldenUpper(&state, 64)
	perm := mat.IdentityPerm(64)
	for i := range perm {
		perm[i] = (7 * i) % 64
	}
	g := mat.NewDense(64, 64)
	PermTrsmGramFused(e, b, perm, r64, g)
	add("PermTrsmGramFused/B/4907x64", b)
	add("PermTrsmGramFused/G/4907x64", g)

	an := goldenDense(&state, 203, 71)
	bn := goldenDense(&state, 71, 45)
	c := goldenDense(&state, 203, 45)
	Gemm(e, NoTrans, NoTrans, -1.25, an, bn, 1, c)
	add("GemmNN/203x71x45", c)

	at := goldenDense(&state, 2*fusedMinSlotRows+811, 21)
	bt := goldenDense(&state, 2*fusedMinSlotRows+811, 33)
	ct := goldenDense(&state, 21, 33)
	Gemm(e, Trans, NoTrans, 0.75, at, bt, 1, ct)
	add("GemmTN/4907x21x33", ct)

	ar := goldenUpper(&state, 130)
	br := goldenDense(&state, 130, 147)
	TrmmLeftUpperNoTrans(ar, br)
	add("TrmmLeftUpperNoTrans/130x147", br)

	rl := goldenUpper(&state, 130)
	bl := goldenDense(&state, 130, 147)
	TrsmLeftUpperTrans(rl, bl)
	add("TrsmLeftUpperTrans/130x147", bl)
	return out
}

func TestKernelGoldenHashes(t *testing.T) {
	got := goldenHashes()
	if *updateGolden {
		var sb strings.Builder
		sb.WriteString("# FNV-64a of kernel output bits on fixed inputs; see golden_test.go.\n")
		for _, kv := range got {
			fmt.Fprintf(&sb, "%s %s\n", kv[0], kv[1])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hash, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		want[name] = hash
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d hashes, the test computes %d", goldenPath, len(want), len(got))
	}
	for _, kv := range got {
		if want[kv[0]] != kv[1] {
			t.Errorf("%s: hash %s, golden %s", kv[0], kv[1], want[kv[0]])
		}
	}
}
