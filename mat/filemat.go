package mat

import (
	"fmt"
	"os"
)

// FileMatrix is a binary-format matrix on disk that serves row panels
// into, and takes them from, caller-provided buffers — the whole matrix
// is never resident. Every panel is one positioned read (pread) or
// write (pwrite) of the panel's payload bytes straight into or out of
// the buffer's memory, decoded in place on big-endian hosts. FileMatrix
// is safe for concurrent ReadRows and WriteRows calls on disjoint rows:
// each call carries its own file offset.
type FileMatrix struct {
	f    *os.File
	rows int
	cols int
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
	return &FileMatrix{f: f, rows: rows, cols: cols}, nil
}

// CreateBinary creates (or truncates) path as a zero rows×cols
// binary-format matrix open for panel reads and writes.
func CreateBinary(path string, rows, cols int) (*FileMatrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("mat: cannot create empty %d×%d binary matrix", rows, cols)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return nil, err
	}
	h := binaryHeader(rows, cols)
	if _, err := f.Write(h[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(binaryFileSize(rows, cols)); err != nil {
		f.Close()
		return nil, err
	}
	return &FileMatrix{f: f, rows: rows, cols: cols}, nil
}

// Rows returns the number of rows in the on-disk matrix.
func (fm *FileMatrix) Rows() int { return fm.rows }

// Cols returns the number of columns in the on-disk matrix.
func (fm *FileMatrix) Cols() int { return fm.cols }

// panel checks that the packed buffer d fits rows [lo, hi) and returns
// its values and their byte offset in the file.
func (fm *FileMatrix) panel(d *Dense, lo, hi int) ([]float64, int64, error) {
	if lo < 0 || hi < lo || hi > fm.rows {
		return nil, 0, fmt.Errorf("mat: row panel [%d,%d) out of range for %d rows", lo, hi, fm.rows)
	}
	if d.Rows != hi-lo || d.Cols != fm.cols || d.Stride != d.Cols {
		return nil, 0, fmt.Errorf("mat: panel buffer %d×%d (stride %d) does not fit rows [%d,%d) of %d cols",
			d.Rows, d.Cols, d.Stride, lo, hi, fm.cols)
	}
	return d.Data[:(hi-lo)*fm.cols], BinaryHeaderSize + 8*int64(lo)*int64(fm.cols), nil
}

// ReadRows fills dst with rows [lo, hi) of the on-disk matrix. dst must
// be a packed (hi-lo)×cols matrix (Stride == Cols). Returns the number
// of payload bytes transferred from the file.
func (fm *FileMatrix) ReadRows(dst *Dense, lo, hi int) (int64, error) {
	vals, off, err := fm.panel(dst, lo, hi)
	if err != nil || len(vals) == 0 {
		return 0, err
	}
	if _, err := fm.f.ReadAt(float64Bytes(vals), off); err != nil {
		return 0, fmt.Errorf("mat: reading rows [%d,%d): %w", lo, hi, err)
	}
	fromLittleEndian(vals)
	return 8 * int64(len(vals)), nil
}

// WriteRows stores src as rows [lo, lo+src.Rows) of the on-disk matrix.
// src must be a packed matrix (Stride == Cols) of the file's width.
func (fm *FileMatrix) WriteRows(src *Dense, lo int) error {
	vals, off, err := fm.panel(src, lo, lo+src.Rows)
	if err != nil || len(vals) == 0 {
		return err
	}
	var buf []byte
	if _, err := fm.f.WriteAt(littleEndianBytes(vals, &buf), off); err != nil {
		return fmt.Errorf("mat: writing rows [%d,%d): %w", lo, lo+src.Rows, err)
	}
	return nil
}

// Close closes the file. The FileMatrix must not be used afterwards.
func (fm *FileMatrix) Close() error { return fm.f.Close() }
