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
// Row i starts at byte 32 + 8·i·cols, so a row panel is one positioned
// read or write. Every float64 payload in the repository — these files,
// the out-of-core scratch file and the service wire — goes through the
// little-endian codec below; on little-endian hosts it is a plain copy
// of the values' own bytes.
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

// float64Bytes returns the raw byte view of s without copying.
func float64Bytes(s []float64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s))
}

// AppendFloat64s appends the little-endian encoding of src to dst.
func AppendFloat64s(dst []byte, src []float64) []byte {
	if hostLittleEndian {
		return append(dst, float64Bytes(src)...)
	}
	for _, v := range src {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeFloat64s fills dst from the little-endian float64s at the start
// of src, which must hold at least 8·len(dst) bytes. src may be dst's
// own memory.
func DecodeFloat64s(dst []float64, src []byte) {
	if hostLittleEndian {
		copy(float64Bytes(dst), src)
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// littleEndianBytes returns the little-endian bytes of s: s's own memory
// on a little-endian host, elsewhere an encoding kept in *buf.
func littleEndianBytes(s []float64, buf *[]byte) []byte {
	if hostLittleEndian {
		return float64Bytes(s)
	}
	*buf = AppendFloat64s((*buf)[:0], s)
	return *buf
}

// fromLittleEndian decodes, in place, values whose bytes were read
// straight into s.
func fromLittleEndian(s []float64) {
	if !hostLittleEndian {
		DecodeFloat64s(s, float64Bytes(s))
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

// binaryFileSize returns the size of an r×c binary-format file. Callers
// must have validated the dimensions via parseBinaryHeader first.
func binaryFileSize(rows, cols int) int64 {
	return BinaryHeaderSize + 8*int64(rows)*int64(cols)
}

// WriteBinary emits m in the binary matrix format.
func (m *Dense) WriteBinary(w io.Writer) error {
	bw, err := newBinaryWriter(w, m.Rows, m.Cols)
	if err != nil {
		return err
	}
	if err := bw.WriteRows(m); err != nil {
		return err
	}
	return bw.bw.Flush()
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
	total := rows * cols
	data := make([]float64, 0, min(total, binaryGrowStart))
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
		fromLittleEndian(seg)
	}
	return NewDenseData(rows, cols, data), nil
}

// binaryGrowStart is the payload capacity, in values, that ReadBinary
// starts from before doubling.
const binaryGrowStart = 1 << 12

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
	fm, err := OpenBinary(path)
	if err != nil {
		return nil, err
	}
	defer fm.Close()
	m := NewDense(fm.rows, fm.cols)
	if _, err := fm.ReadRows(m, 0, fm.rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// BinaryWriter streams a binary-format matrix one row panel at a time,
// so a writer never needs the full matrix resident — the out-of-core
// path streams Q through this. Rows must arrive in order; Close fails
// if the promised row count was not delivered, leaving no ambiguity
// about a partially written file (the header is written first and is
// only trustworthy once Close returns nil).
type BinaryWriter struct {
	f       *os.File // nil when Dense.WriteBinary streams to a caller's writer
	bw      *bufio.Writer
	rows    int
	cols    int
	written int    // rows written so far
	scratch []byte // encoded row on big-endian hosts
}

// newBinaryWriter writes the header of a rows×cols matrix to w.
func newBinaryWriter(w io.Writer, rows, cols int) (*BinaryWriter, error) {
	bw := &BinaryWriter{bw: bufio.NewWriterSize(w, 1<<20), rows: rows, cols: cols}
	h := binaryHeader(rows, cols)
	if _, err := bw.bw.Write(h[:]); err != nil {
		return nil, err
	}
	return bw, nil
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
	w, err := newBinaryWriter(f, rows, cols)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.f = f
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
		if _, err := w.bw.Write(littleEndianBytes(row, &w.scratch)); err != nil {
			return err
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
// it against the file's size and returns the dimensions.
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
	if want := binaryFileSize(rows, cols); fi.Size() != want {
		return 0, 0, fmt.Errorf("mat: file size %d does not match header (%d×%d wants %d)", fi.Size(), rows, cols, want)
	}
	return rows, cols, nil
}
