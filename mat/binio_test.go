package mat

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func binTestMatrix(rng *rand.Rand, m, n int) *Dense {
	a := NewDense(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	// Sprinkle the values a byte-level round trip must preserve exactly.
	a.Data[0] = math.NaN()
	if len(a.Data) > 3 {
		a.Data[1] = math.Inf(1)
		a.Data[2] = math.Copysign(0, -1)
		a.Data[3] = 5e-324 // smallest subnormal
	}
	return a
}

func sameBinBits(t *testing.T, a, b *Dense) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("shape %d×%d vs %d×%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				t.Fatalf("(%d,%d): %g vs %g", i, j, a.At(i, j), b.At(i, j))
			}
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range []struct{ m, n int }{{1, 1}, {3, 7}, {64, 5}, {130, 16}} {
		a := binTestMatrix(rng, sh.m, sh.n)
		var buf bytes.Buffer
		if err := a.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if want := int64(BinaryHeaderSize) + 8*int64(sh.m)*int64(sh.n); int64(buf.Len()) != want {
			t.Fatalf("%d×%d: encoded %d bytes, want %d", sh.m, sh.n, buf.Len(), want)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		sameBinBits(t, a, got)
	}
}

// TestBinaryWriteRespectsViews: a strided view encodes its logical
// rows, not the backing array.
func TestBinaryWriteRespectsViews(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := binTestMatrix(rng, 10, 8)
	v := a.Slice(2, 7, 1, 5)
	var buf bytes.Buffer
	if err := v.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameBinBits(t, v, got)
}

func TestBinaryFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := binTestMatrix(rng, 97, 13)
	path := filepath.Join(t.TempDir(), "a.tsqrmat")
	if err := a.WriteBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameBinBits(t, a, got)
}

// corruptAt writes a valid binary file, then overwrites the bytes at
// off, and returns the path.
func corruptAt(t *testing.T, dir string, off int64, b []byte) string {
	t.Helper()
	a := NewDense(4, 3)
	for i := range a.Data {
		a.Data[i] = float64(i)
	}
	path := filepath.Join(dir, "corrupt.tsqrmat")
	if err := a.WriteBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBinaryHostileHeaders: every malformed header is rejected before
// any payload-sized allocation happens.
func TestBinaryHostileHeaders(t *testing.T) {
	huge := make([]byte, 8)
	binary.LittleEndian.PutUint64(huge, math.MaxUint64/4)
	cases := []struct {
		name string
		off  int64
		b    []byte
	}{
		{"bad magic", 0, []byte("NOTAMATX")},
		{"zero rows", 8, make([]byte, 8)},
		{"zero cols", 16, make([]byte, 8)},
		{"overflow rows", 8, huge},
		{"overflow cols", 16, huge},
		{"reserved set", 24, []byte{1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := corruptAt(t, t.TempDir(), tc.off, tc.b)
			if _, err := ReadBinaryFile(path); err == nil {
				t.Error("ReadBinaryFile accepted the hostile header")
			}
			if fm, err := OpenBinary(path); err == nil {
				fm.Close()
				t.Error("OpenBinary accepted the hostile header")
			}
		})
	}
}

// TestBinarySizeMismatch: the file readers demand the exact size the
// header promises — truncated payloads and trailing garbage both fail.
func TestBinarySizeMismatch(t *testing.T) {
	dir := t.TempDir()
	a := NewDense(6, 4)
	path := filepath.Join(dir, "a.tsqrmat")
	if err := a.WriteBinaryFile(path); err != nil {
		t.Fatal(err)
	}

	trunc := filepath.Join(dir, "trunc.tsqrmat")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(trunc, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinaryFile(trunc); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, err := OpenBinary(trunc); err == nil {
		t.Error("OpenBinary accepted truncated payload")
	}

	trail := filepath.Join(dir, "trail.tsqrmat")
	if err := os.WriteFile(trail, append(data, 0xFF), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinaryFile(trail); err == nil {
		t.Error("trailing garbage accepted")
	}

	short := filepath.Join(dir, "short.tsqrmat")
	if err := os.WriteFile(short, data[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinaryFile(short); err == nil {
		t.Error("truncated header accepted")
	}

	// The stream reader, by contrast, tolerates trailing bytes (framing).
	if _, err := ReadBinary(bytes.NewReader(append(data, 1, 2, 3))); err != nil {
		t.Errorf("stream reader rejected trailing bytes: %v", err)
	}
}

func TestFileMatrixReadRows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := binTestMatrix(rng, 50, 9)
	path := filepath.Join(t.TempDir(), "a.tsqrmat")
	if err := a.WriteBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	fm, err := OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fm.Close()
	if fm.Rows() != 50 || fm.Cols() != 9 {
		t.Fatalf("header %d×%d, want 50×9", fm.Rows(), fm.Cols())
	}
	for _, r := range [][2]int{{0, 50}, {0, 1}, {49, 50}, {13, 37}} {
		lo, hi := r[0], r[1]
		dst := NewDense(hi-lo, 9)
		nb, err := fm.ReadRows(dst, lo, hi)
		if err != nil {
			t.Fatalf("[%d,%d): %v", lo, hi, err)
		}
		if want := int64(8 * 9 * (hi - lo)); nb != want {
			t.Errorf("[%d,%d): %d bytes, want %d", lo, hi, nb, want)
		}
		sameBinBits(t, a.Slice(lo, hi, 0, 9), dst)
	}
	// Out-of-range and shape mismatches are rejected.
	if _, err := fm.ReadRows(NewDense(2, 9), 49, 51); err == nil {
		t.Error("past-the-end range accepted")
	}
	if _, err := fm.ReadRows(NewDense(3, 9), 5, 3); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := fm.ReadRows(NewDense(4, 8), 0, 4); err == nil {
		t.Error("wrong-width destination accepted")
	}
	if _, err := fm.ReadRows(NewDense(10, 9).Slice(0, 4, 0, 8), 0, 4); err == nil {
		t.Error("strided destination accepted")
	}
}

// TestFileMatrixWriteRows: CreateBinary makes a valid zero matrix of
// the promised shape, and panels written out of order at their row
// offsets read back exactly.
func TestFileMatrixWriteRows(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := binTestMatrix(rng, 23, 4)
	path := filepath.Join(t.TempDir(), "rw.tsqrmat")
	fm, err := CreateBinary(path, 23, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer fm.Close()
	zero, err := ReadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameBinBits(t, NewDense(23, 4), zero)
	for _, r := range [][2]int{{10, 23}, {0, 3}, {3, 10}} {
		if err := fm.WriteRows(a.Slice(r[0], r[1], 0, 4).Clone(), r[0]); err != nil {
			t.Fatal(err)
		}
	}
	got := NewDense(23, 4)
	if _, err := fm.ReadRows(got, 0, 23); err != nil {
		t.Fatal(err)
	}
	sameBinBits(t, a, got)
	if err := fm.WriteRows(NewDense(2, 4), 22); err == nil {
		t.Error("past-the-end panel accepted")
	}
	if err := fm.WriteRows(a.Slice(0, 2, 0, 3), 0); err == nil {
		t.Error("wrong-width panel accepted")
	}
	if _, err := CreateBinary(filepath.Join(t.TempDir(), "z.tsqrmat"), 0, 4); err == nil {
		t.Error("zero-row matrix accepted")
	}
}

// TestBigEndianCodecPaths runs every payload path with the host treated
// as big-endian, so the explicit little-endian encoding and the in-place
// decode are exercised on every host, and checks that they produce and
// accept the same bytes as the native path.
func TestBigEndianCodecPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := binTestMatrix(rng, 9, 5)
	var native bytes.Buffer
	if err := a.WriteBinary(&native); err != nil {
		t.Fatal(err)
	}
	hostLittleEndian = !hostLittleEndian
	defer func() { hostLittleEndian = !hostLittleEndian }()

	var swapped bytes.Buffer
	if err := a.WriteBinary(&swapped); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(native.Bytes(), swapped.Bytes()) {
		t.Fatal("explicit encoding differs from the native bytes")
	}
	got, err := ReadBinary(bytes.NewReader(native.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameBinBits(t, a, got)
	dec := make([]float64, 9*5)
	DecodeFloat64s(dec, native.Bytes()[BinaryHeaderSize:])
	sameBinBits(t, a, NewDenseData(9, 5, dec))

	path := filepath.Join(t.TempDir(), "be.tsqrmat")
	fm, err := CreateBinary(path, 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer fm.Close()
	if err := fm.WriteRows(a, 0); err != nil {
		t.Fatal(err)
	}
	back := NewDense(9, 5)
	if _, err := fm.ReadRows(back, 0, 9); err != nil {
		t.Fatal(err)
	}
	sameBinBits(t, a, back)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, native.Bytes()) {
		t.Fatal("file written through WriteRows differs from WriteBinary's bytes")
	}
}

func TestBinaryWriterContract(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.tsqrmat")
	w, err := NewBinaryWriterFile(path, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRows(NewDense(2, 4)); err == nil {
		t.Error("wrong-width panel accepted")
	}
	if err := w.WriteRows(NewDense(6, 3)); err == nil {
		t.Error("overflow past promised rows accepted")
	}
	if err := w.WriteRows(NewDense(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Error("Close with 2 of 5 promised rows must fail")
	}

	// The happy path round-trips through panels.
	rng := rand.New(rand.NewSource(5))
	a := binTestMatrix(rng, 7, 3)
	path2 := filepath.Join(dir, "w2.tsqrmat")
	w2, err := NewBinaryWriterFile(path2, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{0, 3}, {3, 4}, {4, 7}} {
		if err := w2.WriteRows(a.Slice(r[0], r[1], 0, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinaryFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	sameBinBits(t, a, got)

	if _, err := NewBinaryWriterFile(filepath.Join(dir, "z.tsqrmat"), 0, 3); err == nil {
		t.Error("zero-row writer accepted")
	}
}

// TestTextSizeHint: the text reader preallocates from the file size for
// regular files and falls back to zero (append-growth) elsewhere.
func TestTextSizeHint(t *testing.T) {
	if h := textSizeHint(strings.NewReader("1 2\n")); h != 0 {
		t.Errorf("non-file hint = %d, want 0", h)
	}
	path := filepath.Join(t.TempDir(), "a.txt")
	if err := os.WriteFile(path, []byte("1 2\n3 4\n5 6\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if h := textSizeHint(f); h != 12 {
		t.Errorf("file hint = %d, want 12", h)
	}
	m, err := Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 2 || m.At(2, 1) != 6 {
		t.Fatalf("parsed %+v", m)
	}
}
