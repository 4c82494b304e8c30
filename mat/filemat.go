package mat

import (
	"fmt"
	"os"
)

// FileMatrix is a read-only view of a binary-format matrix on disk. It
// serves row panels into caller-provided buffers — the whole matrix is
// never resident. On platforms with mmap support the payload is mapped
// and panel reads are memcpys through the page cache; elsewhere (or when
// mapping fails) reads fall back to positioned pread calls, so the type
// works identically everywhere. FileMatrix is safe for concurrent
// ReadRows calls: the mapping is immutable and pread carries its own
// file offset.
type FileMatrix struct {
	f      *os.File
	rows   int
	cols   int
	mapped []byte    // whole-file mapping; nil on the pread path
	data   []float64 // zero-copy payload view; nil unless mapped on a little-endian host
}

// OpenBinary opens a binary-format matrix file for panel reads. The
// header is validated against the file size before any data is touched.
func OpenBinary(path string) (*FileMatrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	rows, cols, err := checkBinarySize(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	fm := &FileMatrix{f: f, rows: rows, cols: cols}
	if mmapSupported {
		size := int64(BinaryHeaderSize) + binaryPayloadBytes(rows, cols)
		if b, err := mmapFile(f, size); err == nil {
			fm.mapped = b
			if hostLittleEndian {
				// Payload offset 32 keeps the page-aligned mapping
				// 8-aligned, so the view is valid.
				fm.data = bytesFloat64s(b[BinaryHeaderSize:])
			}
		}
		// A failed mmap (exotic filesystem, address-space pressure) is
		// not an error: the pread path serves the same bytes.
	}
	return fm, nil
}

// Rows returns the number of rows in the on-disk matrix.
func (fm *FileMatrix) Rows() int { return fm.rows }

// Cols returns the number of columns in the on-disk matrix.
func (fm *FileMatrix) Cols() int { return fm.cols }

// Mapped reports whether the payload is served from a memory mapping
// (as opposed to positioned reads).
func (fm *FileMatrix) Mapped() bool { return fm.mapped != nil }

// ReadRows fills dst with rows [lo, hi) of the on-disk matrix. dst must
// be a packed (hi-lo)×cols matrix (Stride == Cols). Returns the number
// of payload bytes transferred from the file.
func (fm *FileMatrix) ReadRows(dst *Dense, lo, hi int) (int64, error) {
	if lo < 0 || hi < lo || hi > fm.rows {
		return 0, fmt.Errorf("mat: row panel [%d,%d) out of range for %d rows", lo, hi, fm.rows)
	}
	if dst.Rows != hi-lo || dst.Cols != fm.cols || dst.Stride != dst.Cols {
		return 0, fmt.Errorf("mat: panel buffer %d×%d (stride %d) does not fit rows [%d,%d) of %d cols",
			dst.Rows, dst.Cols, dst.Stride, lo, hi, fm.cols)
	}
	if hi == lo {
		return 0, nil
	}
	nvals := (hi - lo) * fm.cols
	nbytes := int64(8) * int64(nvals)
	off := int64(BinaryHeaderSize) + 8*int64(lo)*int64(fm.cols)
	switch {
	case fm.data != nil:
		copy(dst.Data[:nvals], fm.data[lo*fm.cols:hi*fm.cols])
	case fm.mapped != nil:
		// Mapped but big-endian host: decode from the mapping.
		decodeFloat64s(dst.Data[:nvals], fm.mapped[off:off+nbytes])
	case hostLittleEndian:
		// pread straight into the destination's byte view.
		if _, err := fm.f.ReadAt(float64Bytes(dst.Data[:nvals]), off); err != nil {
			return 0, fmt.Errorf("mat: reading rows [%d,%d): %w", lo, hi, err)
		}
	default:
		buf := make([]byte, nbytes)
		if _, err := fm.f.ReadAt(buf, off); err != nil {
			return 0, fmt.Errorf("mat: reading rows [%d,%d): %w", lo, hi, err)
		}
		decodeFloat64s(dst.Data[:nvals], buf)
	}
	return nbytes, nil
}

// Close unmaps the payload (if mapped) and closes the file. The
// FileMatrix must not be used afterwards.
func (fm *FileMatrix) Close() error {
	var errM error
	if fm.mapped != nil {
		errM = munmap(fm.mapped)
		fm.mapped = nil
		fm.data = nil
	}
	errC := fm.f.Close()
	if errM != nil {
		return errM
	}
	return errC
}
