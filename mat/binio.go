package mat

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"unsafe"
)

// Binary matrix format ("TSQRMAT1"): a fixed 32-byte header followed by
// the row-major payload with no padding (stride == cols).
//
//	offset  size  field
//	0       8     magic "TSQRMAT1"
//	8       8     rows (uint64, little-endian)
//	16      8     cols (uint64, little-endian)
//	24      8     reserved, must be zero
//	32      8·r·c payload: float64 values, little-endian, row-major
//
// The payload offset (32) is a multiple of 8, so a page-aligned mmap of
// the file yields an 8-aligned float64 view of the data. The format is
// defined little-endian; on big-endian hosts readers fall back to
// explicit decoding.
const (
	binaryMagic = "TSQRMAT1"
	// BinaryHeaderSize is the size in bytes of the binary format header
	// that precedes the row-major float64 payload.
	BinaryHeaderSize = 32
)

// hostLittleEndian reports whether the running machine stores float64s
// in the format's byte order, enabling zero-copy payload views.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// float64Bytes returns the raw byte view of s without copying. Valid
// only on little-endian hosts (the format's byte order).
func float64Bytes(s []float64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s))
}

// bytesFloat64s reinterprets an 8-aligned little-endian byte slice as
// float64s without copying. Valid only on little-endian hosts.
func bytesFloat64s(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		panic("mat: misaligned float64 byte view")
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// decodeFloat64s decodes len(dst) little-endian float64s from src.
func decodeFloat64s(dst []float64, src []byte) {
	if hostLittleEndian {
		copy(float64Bytes(dst), src)
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// encodeFloat64s encodes src as little-endian float64s into dst.
func encodeFloat64s(dst []byte, src []float64) {
	if hostLittleEndian {
		copy(dst, float64Bytes(src))
		return
	}
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// binaryHeader encodes the 32-byte header for an r×c matrix.
func binaryHeader(rows, cols int) [BinaryHeaderSize]byte {
	var h [BinaryHeaderSize]byte
	copy(h[:8], binaryMagic)
	binary.LittleEndian.PutUint64(h[8:16], uint64(rows))
	binary.LittleEndian.PutUint64(h[16:24], uint64(cols))
	return h
}

// parseBinaryHeader validates a header read from an untrusted source and
// returns the dimensions. Every field is checked before any allocation
// is sized from it: bad magic, a nonzero reserved word, zero or
// int-overflowing dimensions, and payloads whose byte size overflows
// int64 are all rejected.
func parseBinaryHeader(h []byte) (rows, cols int, err error) {
	if len(h) < BinaryHeaderSize {
		return 0, 0, fmt.Errorf("mat: binary header truncated: %d bytes, want %d", len(h), BinaryHeaderSize)
	}
	if string(h[:8]) != binaryMagic {
		return 0, 0, fmt.Errorf("mat: bad magic %q, want %q", h[:8], binaryMagic)
	}
	r := binary.LittleEndian.Uint64(h[8:16])
	c := binary.LittleEndian.Uint64(h[16:24])
	if res := binary.LittleEndian.Uint64(h[24:32]); res != 0 {
		return 0, 0, fmt.Errorf("mat: nonzero reserved header field %#x", res)
	}
	const maxDim = math.MaxInt64 / 8
	if r == 0 || c == 0 {
		return 0, 0, fmt.Errorf("mat: empty matrix (%d×%d)", r, c)
	}
	if r > maxDim || c > maxDim || r > math.MaxUint64/c || r*c > maxDim {
		return 0, 0, fmt.Errorf("mat: dimensions %d×%d overflow", r, c)
	}
	if uint64(int(r)) != r || uint64(int(c)) != c || int64(int(r*c)) != int64(r*c) {
		return 0, 0, fmt.Errorf("mat: dimensions %d×%d exceed platform int", r, c)
	}
	return int(r), int(c), nil
}

// binaryPayloadBytes returns the payload size of an r×c matrix. Callers
// must have validated the dimensions via parseBinaryHeader first.
func binaryPayloadBytes(rows, cols int) int64 {
	return 8 * int64(rows) * int64(cols)
}

// WriteBinary emits m in the binary matrix format.
func (m *Dense) WriteBinary(w io.Writer) error {
	h := binaryHeader(m.Rows, m.Cols)
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(h[:]); err != nil {
		return err
	}
	var scratch []byte
	if !hostLittleEndian {
		scratch = make([]byte, 8*m.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		if hostLittleEndian {
			if _, err := bw.Write(float64Bytes(row)); err != nil {
				return err
			}
			continue
		}
		encodeFloat64s(scratch, row)
		if _, err := bw.Write(scratch); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses a matrix in the binary format from r. The header is
// fully validated first, and the payload grows as bytes arrive, so
// memory tracks what the stream delivered rather than what its header
// claims; a stream shorter than the header promises is rejected.
// Trailing bytes are left unread (streams may carry framing); use
// ReadBinaryFile for exact-size enforcement.
func ReadBinary(r io.Reader) (*Dense, error) {
	var h [BinaryHeaderSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return nil, fmt.Errorf("mat: reading binary header: %w", err)
	}
	rows, cols, err := parseBinaryHeader(h[:])
	if err != nil {
		return nil, err
	}
	return readPayload(r, rows, cols, min(rows*cols, binaryGrowStart))
}

// binaryGrowStart is the payload capacity, in values, that an unsized
// read starts from before doubling.
const binaryGrowStart = 1 << 12

// readPayload reads the rows×cols values that follow a validated header,
// into a buffer that starts at start values and doubles as bytes arrive.
// A caller that has checked the header against the input's length
// passes start = rows·cols, so the payload is allocated once.
func readPayload(r io.Reader, rows, cols, start int) (*Dense, error) {
	total := rows * cols
	data := make([]float64, 0, start)
	for len(data) < total {
		if len(data) == cap(data) {
			data = slices.Grow(data, min(len(data), total-len(data)))
		}
		lo := len(data)
		data = data[:min(cap(data), total)]
		seg := data[lo:]
		if _, err := io.ReadFull(r, float64Bytes(seg)); err != nil {
			return nil, fmt.Errorf("mat: binary payload truncated at value %d of %d (%d×%d): %w", lo, total, rows, cols, err)
		}
		if !hostLittleEndian {
			// Each value's little-endian bytes sit in its own slot.
			decodeFloat64s(seg, float64Bytes(seg))
		}
	}
	return NewDenseData(rows, cols, data), nil
}

// WriteBinaryFile writes m in the binary matrix format to path.
func (m *Dense) WriteBinaryFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteBinary(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBinaryFile reads a binary-format matrix from path, additionally
// enforcing that the file size matches the header exactly.
func ReadBinaryFile(path string) (*Dense, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, cols, err := checkBinarySize(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m, err := readPayload(f, rows, cols, rows*cols)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// BinaryWriter streams a binary-format matrix to disk one row panel at
// a time, so a writer never needs the full matrix resident — the
// out-of-core path streams Q through this. Rows must arrive in order;
// Close fails if the promised row count was not delivered, leaving no
// ambiguity about a partially written file (the header is written first
// and is only trustworthy once Close returns nil).
type BinaryWriter struct {
	f       *os.File
	bw      *bufio.Writer
	rows    int
	cols    int
	written int // rows written so far
	scratch []byte
}

// NewBinaryWriterFile creates path and starts a binary-format matrix of
// the given shape.
func NewBinaryWriterFile(path string, rows, cols int) (*BinaryWriter, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("mat: cannot write empty %d×%d binary matrix", rows, cols)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &BinaryWriter{f: f, bw: bufio.NewWriterSize(f, 1<<20), rows: rows, cols: cols}
	h := binaryHeader(rows, cols)
	if _, err := w.bw.Write(h[:]); err != nil {
		f.Close()
		return nil, err
	}
	if !hostLittleEndian {
		w.scratch = make([]byte, 8*cols)
	}
	return w, nil
}

// WriteRows appends src's rows to the matrix. src must have the writer's
// column count.
func (w *BinaryWriter) WriteRows(src *Dense) error {
	if src.Cols != w.cols {
		return fmt.Errorf("mat: panel has %d cols, writer wants %d", src.Cols, w.cols)
	}
	if w.written+src.Rows > w.rows {
		return fmt.Errorf("mat: writing %d rows past the promised %d", w.written+src.Rows, w.rows)
	}
	for i := 0; i < src.Rows; i++ {
		row := src.Data[i*src.Stride : i*src.Stride+src.Cols]
		if hostLittleEndian {
			if _, err := w.bw.Write(float64Bytes(row)); err != nil {
				return err
			}
		} else {
			encodeFloat64s(w.scratch, row)
			if _, err := w.bw.Write(w.scratch); err != nil {
				return err
			}
		}
	}
	w.written += src.Rows
	return nil
}

// Close flushes and closes the file, failing if fewer rows than promised
// were written.
func (w *BinaryWriter) Close() error {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	if w.written != w.rows {
		return fmt.Errorf("mat: binary writer closed after %d of %d rows", w.written, w.rows)
	}
	return nil
}

// checkBinarySize reads the header of the freshly opened f, validates
// it against the file's size and returns the dimensions; f is left
// positioned at the payload.
func checkBinarySize(f *os.File) (rows, cols int, err error) {
	var h [BinaryHeaderSize]byte
	if _, err := io.ReadFull(f, h[:]); err != nil {
		return 0, 0, fmt.Errorf("mat: reading binary header: %w", err)
	}
	rows, cols, err = parseBinaryHeader(h[:])
	if err != nil {
		return 0, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	want := int64(BinaryHeaderSize) + binaryPayloadBytes(rows, cols)
	if fi.Size() != want {
		return 0, 0, fmt.Errorf("mat: file size %d does not match header (%d×%d wants %d)", fi.Size(), rows, cols, want)
	}
	return rows, cols, nil
}
