package mat

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Read parses a dense matrix from whitespace-separated text: one row per
// line, blank lines and lines starting with '#' ignored. All rows must
// have the same number of fields. When r is a regular file the data
// slice is preallocated from the file size and the first row's width,
// avoiding append-regrowth churn on large inputs.
func Read(r io.Reader) (*Dense, error) {
	return readSized(r, textSizeHint(r))
}

// textSizeHint returns the number of unread bytes when r is a regular
// file, or 0 when no cheap estimate exists.
func textSizeHint(r io.Reader) int64 {
	f, ok := r.(*os.File)
	if !ok {
		return 0
	}
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		return 0
	}
	if pos, err := f.Seek(0, io.SeekCurrent); err == nil && pos > 0 && pos < fi.Size() {
		return fi.Size() - pos
	}
	return fi.Size()
}

func readSized(r io.Reader, sizeHint int64) (*Dense, error) {
	sc := bufio.NewScanner(r)
	// No initial buffer: the scanner starts at 4 KiB and doubles up to
	// the 64 MiB line cap, so a small input costs a small buffer.
	sc.Buffer(nil, 1<<26)
	var data []float64
	rows, cols := 0, -1
	for sc.Scan() {
		rawLen := int64(len(sc.Bytes()))
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if cols == -1 {
			cols = len(fields)
			if sizeHint > 0 {
				// Estimate capacity assuming every row is about as wide
				// as the first (+1 for the newline the scanner strips);
				// the ≥2-bytes-per-value floor bounds the allocation
				// against a hint that overshoots the real input.
				estRows := sizeHint/(rawLen+1) + 2
				capVals := estRows * int64(cols)
				if ceil := sizeHint / 2; capVals > ceil {
					capVals = ceil
				}
				if capVals > 0 && int64(int(capVals)) == capVals {
					data = make([]float64, 0, int(capVals))
				}
			}
		} else if len(fields) != cols {
			return nil, fmt.Errorf("mat: ragged row %d: %d fields, want %d", rows+1, len(fields), cols)
		}
		for _, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("mat: row %d: bad value %q: %v", rows+1, f, err)
			}
			data = append(data, v)
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if rows == 0 {
		return nil, fmt.Errorf("mat: empty matrix")
	}
	return NewDenseData(rows, cols, data), nil
}

// Write emits m as whitespace-separated text, one row per line, using the
// shortest round-trippable float representation.
func (m *Dense) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j, v := range row {
			if j > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFile reads a text matrix from path.
func ReadFile(path string) (*Dense, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// WriteFile writes m as a text matrix to path.
func (m *Dense) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
