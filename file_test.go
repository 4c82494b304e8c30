package tsqrcp

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/trace"
	"repro/mat"
	"repro/testmat"
)

// writeTestMatrix generates a rank-deficient tall test matrix and stores
// it in the binary format, returning the path and the in-memory copy.
func writeTestMatrix(t *testing.T, m, n int, seed int64) (string, *mat.Dense) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	r := n - n/4
	if r < 1 {
		r = n
	}
	a := testmat.Generate(rng, m, n, r, 1e-10)
	path := filepath.Join(t.TempDir(), "a.tsqrmat")
	if err := a.WriteBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	return path, a
}

// sameBits fails the test unless x and y agree bit for bit.
func sameBits(t *testing.T, label string, x, y *mat.Dense) {
	t.Helper()
	if x.Rows != y.Rows || x.Cols != y.Cols {
		t.Fatalf("%s: shape %d×%d vs %d×%d", label, x.Rows, x.Cols, y.Rows, y.Cols)
	}
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < x.Cols; j++ {
			xb := math.Float64bits(x.At(i, j))
			yb := math.Float64bits(y.At(i, j))
			if xb != yb {
				t.Fatalf("%s: (%d,%d) bits %#x vs %#x (%g vs %g)",
					label, i, j, xb, yb, x.At(i, j), y.At(i, j))
			}
		}
	}
}

// TestQRCPFileBitIdenticalToInCore is the acceptance property of the
// out-of-core path: for every panel size (one panel, ragged tail,
// minimum) and engine width, QRCPFile returns exactly the bits of the
// in-core Engine.QRCP on the same data — including the streamed Q.
func TestQRCPFileBitIdenticalToInCore(t *testing.T) {
	const m, n = 5000, 24
	path, a := writeTestMatrix(t, m, n, 42)
	ref, err := QRCP(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Panel regimes: larger than any slot (1 panel per slot), a ragged
	// tail inside each slot, and the minimum micro-block height.
	panels := []int{m, 1024 + 192, 64}
	widths := []int{1, 2, 8}
	for _, pr := range panels {
		for _, wk := range widths {
			qPath := filepath.Join(t.TempDir(), "q.tsqrmat")
			got, err := NewEngine(wk).QRCPFile(path, &FileOptions{
				PanelRows: pr,
				QPath:     qPath,
			})
			if err != nil {
				t.Fatalf("panel=%d width=%d: %v", pr, wk, err)
			}
			if got.Iterations != ref.Iterations {
				t.Fatalf("panel=%d width=%d: %d iterations, want %d", pr, wk, got.Iterations, ref.Iterations)
			}
			for j, v := range got.Perm {
				if v != ref.Perm[j] {
					t.Fatalf("panel=%d width=%d: perm[%d]=%d, want %d", pr, wk, j, v, ref.Perm[j])
				}
			}
			sameBits(t, "R", got.R, ref.R)
			q, err := mat.ReadBinaryFile(qPath)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "Q", q, ref.Q)
		}
	}
}

// TestQRCPFileOffGridPanels cuts panels at heights that are no multiple
// of any tile or micro-block: every Level-3 element is one fma chain over
// its slot's rows, so any cut inside a slot reproduces the in-core Q, R
// and Perm bit for bit.
func TestQRCPFileOffGridPanels(t *testing.T) {
	const m, n = 5000, 24
	path, a := writeTestMatrix(t, m, n, 43)
	ref, err := QRCP(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range []int{100, 517} {
		for _, wk := range []int{1, 2} {
			qPath := filepath.Join(t.TempDir(), "q.tsqrmat")
			got, err := NewEngine(wk).QRCPFile(path, &FileOptions{PanelRows: pr, QPath: qPath})
			if err != nil {
				t.Fatalf("panel=%d width=%d: %v", pr, wk, err)
			}
			for j, v := range got.Perm {
				if v != ref.Perm[j] {
					t.Fatalf("panel=%d width=%d: perm[%d]=%d, want %d", pr, wk, j, v, ref.Perm[j])
				}
			}
			sameBits(t, "R", got.R, ref.R)
			q, err := mat.ReadBinaryFile(qPath)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "Q", q, ref.Q)
		}
	}
}

// TestQRCPFileWidthOneMatrix covers the degenerate widths the panel
// kernels' register tiles must still handle.
func TestQRCPFileNarrowWidths(t *testing.T) {
	for _, n := range []int{1, 2, 8} {
		path, a := writeTestMatrix(t, 700, n, int64(100+n))
		ref, err := QRCP(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := QRCPFile(path, &FileOptions{PanelRows: 128})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		sameBits(t, "R", got.R, ref.R)
		for j, v := range got.Perm {
			if v != ref.Perm[j] {
				t.Fatalf("n=%d: perm[%d]=%d, want %d", n, j, v, ref.Perm[j])
			}
		}
	}
}

// TestQRCPFileBytesReadPerSweep pins the disk-traffic model: the
// factorization performs exactly Iterations+1 full sequential reads of
// the matrix without Q (initial Gram + one fused sweep per iteration,
// the last of which emits the reorthogonalization Gram), +1 more with Q
// streaming, and the ooc_bytes_read counter proves it.
func TestQRCPFileBytesReadPerSweep(t *testing.T) {
	const m, n = 4200, 16
	path, _ := writeTestMatrix(t, m, n, 7)
	sweepBytes := int64(8) * int64(m) * int64(n)

	trace.Reset()
	trace.Enable()
	got, err := QRCPFile(path, &FileOptions{PanelRows: 512})
	trace.Disable()
	if err != nil {
		t.Fatal(err)
	}
	rep := trace.Snapshot()
	read := rep.Counters["ooc_bytes_read"]
	want := int64(got.Iterations+1) * sweepBytes
	if read != want {
		t.Fatalf("ooc_bytes_read=%d, want %d (%d iterations ⇒ %d sweeps)",
			read, want, got.Iterations, got.Iterations+1)
	}

	trace.Reset()
	trace.Enable()
	got, err = QRCPFile(path, &FileOptions{
		PanelRows: 512,
		QPath:     filepath.Join(t.TempDir(), "q.tsqrmat"),
	})
	trace.Disable()
	if err != nil {
		t.Fatal(err)
	}
	rep = trace.Snapshot()
	read = rep.Counters["ooc_bytes_read"]
	want = int64(got.Iterations+2) * sweepBytes
	if read != want {
		t.Fatalf("with Q: ooc_bytes_read=%d, want %d", read, want)
	}
}

// TestQRCPFileRejections covers the strategy gate, a missing file, and a
// Q destination that cannot be written, which fails before any sweep
// reads the matrix although the Q file is only sized once the rank is
// known.
func TestQRCPFileRejections(t *testing.T) {
	path, _ := writeTestMatrix(t, 256, 8, 3)
	if _, err := QRCPFile(path, &FileOptions{Options: Options{Strategy: StrategyCQRRPT}}); err == nil {
		t.Fatal("CQRRPT strategy accepted")
	}
	if _, err := QRCPFile(filepath.Join(t.TempDir(), "missing.tsqrmat"), nil); err == nil {
		t.Fatal("missing file accepted")
	}
	trace.Reset()
	trace.Enable()
	_, err := QRCPFile(path, &FileOptions{QPath: filepath.Join(t.TempDir(), "missing", "q.tsqrmat")})
	trace.Disable()
	if err == nil {
		t.Fatal("unwritable Q destination accepted")
	}
	if read := trace.Snapshot().Counters["ooc_bytes_read"]; read != 0 {
		t.Fatalf("unwritable Q destination reported after %d bytes read", read)
	}
}

// TestQRCPFileWideMatrixRejected: the streaming sweeps need m ≥ n.
func TestQRCPFileWideMatrixRejected(t *testing.T) {
	a := mat.NewDense(4, 9)
	for i := range a.Data {
		a.Data[i] = float64(i + 1)
	}
	path := filepath.Join(t.TempDir(), "wide.tsqrmat")
	if err := a.WriteBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := QRCPFile(path, nil); err == nil {
		t.Fatal("wide matrix accepted")
	}
}
