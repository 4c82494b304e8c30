package mat

// Fuzz targets for the matrix readers, which take files and streams from
// outside the program. Each checks, on every input:
//
//   - the reader returns: no panic, no hang;
//   - an accepted input re-encodes to exactly the bytes the reader
//     consumed (text has no unique encoding, so there the written form
//     must be a fixed point of read-then-write);
//   - the binary readers allocate at most fuzzAllocFactor bytes per
//     input byte plus fuzzAllocSlack, so a hostile header never chooses
//     the allocation size.
//
// The seed corpora under testdata/fuzz/<Name> hold valid matrices and the
// hostile ones; plain `go test` runs them, `make fuzz` fuzzes from them.

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

const (
	fuzzAllocFactor = 4
	fuzzAllocSlack  = 256 << 10
)

// allocBytes returns the bytes allocated while fn ran (the TotalAlloc
// delta).
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkAllocBound fails t when a reader's allocation outgrew its input.
func checkAllocBound(t *testing.T, what string, alloc uint64, inputLen int) {
	t.Helper()
	if limit := uint64(fuzzAllocFactor*inputLen + fuzzAllocSlack); alloc > limit {
		t.Fatalf("%s allocated %d bytes for a %d-byte input (bound %d)", what, alloc, inputLen, limit)
	}
}

// checkBinaryReencodes fails t unless m writes back to exactly want.
func checkBinaryReencodes(t *testing.T, what string, m *Dense, want []byte) {
	t.Helper()
	var enc bytes.Buffer
	if err := m.WriteBinary(&enc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Bytes(), want) {
		t.Fatalf("%s: accepted matrix re-encodes to %x, consumed %x", what, enc.Bytes(), want)
	}
}

// FuzzReadBinary feeds one input to the three binary readers: the
// stream reader, and (through a file) ReadBinaryFile and OpenBinary +
// ReadRows. The file readers demand the exact size the header promises,
// so they accept exactly the inputs the stream reader consumes whole.
func FuzzReadBinary(f *testing.F) {
	path := filepath.Join(f.TempDir(), "fuzz.tsqrmat")
	f.Fuzz(func(t *testing.T, in []byte) {
		src := bytes.NewReader(in)
		var m *Dense
		var err error
		checkAllocBound(t, "ReadBinary", allocBytes(func() { m, err = ReadBinary(src) }), len(in))
		whole := err == nil && src.Len() == 0
		if err == nil {
			checkBinaryReencodes(t, "ReadBinary", m, in[:len(in)-src.Len()])
		}

		if err := os.WriteFile(path, in, 0o600); err != nil {
			t.Fatal(err)
		}
		checkAllocBound(t, "ReadBinaryFile", allocBytes(func() { m, err = ReadBinaryFile(path) }), len(in))
		if (err == nil) != whole {
			t.Fatalf("ReadBinaryFile error %v, but the stream reader consumed the whole input: %v", err, whole)
		}
		if err == nil {
			checkBinaryReencodes(t, "ReadBinaryFile", m, in)
		}

		var fm *FileMatrix
		checkAllocBound(t, "OpenBinary", allocBytes(func() { fm, err = OpenBinary(path) }), len(in))
		if (err == nil) != whole {
			t.Fatalf("OpenBinary error %v, but the stream reader consumed the whole input: %v", err, whole)
		}
		if err != nil {
			return
		}
		defer fm.Close()
		dst := NewDense(fm.Rows(), fm.Cols())
		mid := fm.Rows() / 2
		for _, p := range [][2]int{{0, mid}, {mid, fm.Rows()}} {
			if p[0] == p[1] {
				continue
			}
			if _, err := fm.ReadRows(dst.Slice(p[0], p[1], 0, fm.Cols()), p[0], p[1]); err != nil {
				t.Fatalf("ReadRows [%d,%d): %v", p[0], p[1], err)
			}
		}
		checkBinaryReencodes(t, "OpenBinary", dst, in)
	})
}

// FuzzRead runs the text reader on a stream and, through a file, on the
// size-hinted path; both must agree.
func FuzzRead(f *testing.F) {
	path := filepath.Join(f.TempDir(), "fuzz.txt")
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := Read(bytes.NewReader(in))
		if err := os.WriteFile(path, in, 0o600); err != nil {
			t.Fatal(err)
		}
		fm, ferr := ReadFile(path)
		if (err == nil) != (ferr == nil) {
			t.Fatalf("stream reader error %v, file reader error %v", err, ferr)
		}
		if err != nil {
			return
		}
		var enc, fenc bytes.Buffer
		if err := m.Write(&enc); err != nil {
			t.Fatal(err)
		}
		if err := fm.Write(&fenc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), fenc.Bytes()) {
			t.Fatalf("stream and file readers disagree: %q vs %q", enc.Bytes(), fenc.Bytes())
		}
		back, err := Read(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("written form %q does not read back: %v", enc.Bytes(), err)
		}
		var again bytes.Buffer
		if err := back.Write(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), enc.Bytes()) {
			t.Fatalf("written form %q re-encodes to %q", enc.Bytes(), again.Bytes())
		}
	})
}
