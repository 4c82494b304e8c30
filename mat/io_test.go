package mat

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

func TestReadBasic(t *testing.T) {
	in := "1 2 3\n4 5 6\n"
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 2 || m.Cols != 3 || m.At(1, 2) != 6 {
		t.Fatalf("parsed %+v", m)
	}
}

func TestReadCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n1 2\n  \n# mid\n3 4\n"
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 2 || m.At(1, 0) != 3 {
		t.Fatalf("parsed %+v", m)
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader("1 2\n3\n")); err == nil {
		t.Fatal("ragged rows must error")
	}
	if _, err := Read(strings.NewReader("1 x\n")); err == nil {
		t.Fatal("bad value must error")
	}
	if _, err := Read(strings.NewReader("# only comments\n")); err == nil {
		t.Fatal("empty matrix must error")
	}
}

// TestReadSmallInputAllocatesLittle checks that the text reader's line
// buffer tracks the input: a 2×2 matrix must not pay for a buffer sized
// for the 64 MiB line cap.
func TestReadSmallInputAllocatesLittle(t *testing.T) {
	in := "1 2\n3 4\n"
	var err error
	alloc := allocBytes(func() { _, err = Read(strings.NewReader(in)) })
	if err != nil {
		t.Fatal(err)
	}
	if alloc >= 64<<10 {
		t.Fatalf("Read of a %d-byte input allocated %d bytes, want < 64 KiB", len(in), alloc)
	}
}

// TestReadLongLine checks that the line buffer grows past its small
// start for a row far wider than 4 KiB.
func TestReadLongLine(t *testing.T) {
	const cols = 100000
	line := strings.Repeat("1.5 ", cols)
	m, err := Read(strings.NewReader(line + "\n" + line + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 2 || m.Cols != cols || m.At(1, cols-1) != 1.5 {
		t.Fatalf("parsed %d×%d", m.Rows, m.Cols)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	m := NewDense(7, 5)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
	}
	m.Set(0, 0, 0)
	m.Set(1, 1, -1e-300)
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualApprox(got, m, 0) {
		t.Fatal("round trip must be exact (shortest float format)")
	}
}

func TestWriteRespectsViews(t *testing.T) {
	big := NewDense(4, 4)
	for i := range big.Data {
		big.Data[i] = float64(i)
	}
	v := big.Slice(1, 3, 1, 3)
	var buf bytes.Buffer
	if err := v.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualApprox(got, v, 0) {
		t.Fatal("strided view round trip failed")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.txt")
	m := NewDenseData(2, 2, []float64{1.5, -2, 0, 4e10})
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualApprox(got, m, 0) {
		t.Fatal("file round trip failed")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Fatal("missing file must error")
	}
}
