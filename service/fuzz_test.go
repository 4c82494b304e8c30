package service

// Fuzz targets for the decoders of bytes read off the network. Each
// checks, on every input:
//
//   - the decoder returns: no panic, no hang;
//   - an accepted input satisfies the protocol's bounds and re-encodes
//     to exactly the bytes the decoder consumed;
//   - the decoder allocates at most fuzzAllocFactor bytes per input byte
//     plus fuzzAllocSlack, so a hostile length field never chooses the
//     allocation size (DESIGN.md §12).
//
// The seed corpora under testdata/fuzz/<Name> hold valid frames and the
// hostile ones; plain `go test` runs them, `make fuzz` fuzzes from them.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

const (
	fuzzAllocFactor = 4
	fuzzAllocSlack  = 256 << 10

	// fuzzMaxFrame is readFrame's size limit under fuzzing.
	fuzzMaxFrame = 1 << 12
)

// fuzzLimits keeps accepted jobs small, so the fuzzer explores headers
// rather than megabytes of matrix data.
var fuzzLimits = Limits{MaxRows: 64, MaxCols: 8, MaxFrameBytes: fuzzMaxFrame}

// allocBytes returns the bytes allocated while fn ran (the TotalAlloc
// delta).
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkAllocBound fails t when a decoder's allocation outgrew its input.
func checkAllocBound(t *testing.T, what string, alloc uint64, inputLen int) {
	t.Helper()
	if limit := uint64(fuzzAllocFactor*inputLen + fuzzAllocSlack); alloc > limit {
		t.Fatalf("%s allocated %d bytes for a %d-byte input (bound %d)", what, alloc, inputLen, limit)
	}
}

func FuzzDecodeJob(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		var j *jobRequest
		var err error
		alloc := allocBytes(func() { j, err = decodeJob(payload, fuzzLimits) })
		checkAllocBound(t, "decodeJob", alloc, len(payload))
		if err != nil {
			return
		}
		if len(j.Tenant) > MaxTenantLen || j.A.Rows > fuzzLimits.MaxRows || j.A.Cols > fuzzLimits.MaxCols || j.A.Rows < j.A.Cols {
			t.Fatalf("accepted a job outside the protocol bounds: tenant of %d bytes, shape %dx%d", len(j.Tenant), j.A.Rows, j.A.Cols)
		}
		if enc := encodeJob(j)[1:]; !bytes.Equal(enc, payload) {
			t.Fatalf("accepted job re-encodes to %x, input was %x", enc, payload)
		}
	})
}

func FuzzDecodeResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		var r *jobResult
		var err error
		alloc := allocBytes(func() { r, err = decodeResult(payload) })
		checkAllocBound(t, "decodeResult", alloc, len(payload))
		if err != nil {
			return
		}
		if r.Status == StatusOK && !r.Perm.IsValid() {
			t.Fatalf("accepted a result whose perm %v is not a permutation", r.Perm)
		}
		if enc := encodeResult(r)[1:]; !bytes.Equal(enc, payload) {
			t.Fatalf("accepted result re-encodes to %x, input was %x", enc, payload)
		}
	})
}

// hostileFrame is a header claiming 2³⁰−1 payload bytes followed by ten
// of them: under DefaultMaxFrameBytes the claim passes the limit check.
var hostileFrame = []byte{0xff, 0xff, 0xff, 0x3f, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

// TestReadFrameHostileLength: a length field under the frame limit but
// far beyond the bytes that follow costs an allocation sized by the
// bytes, not by the claim.
func TestReadFrameHostileLength(t *testing.T) {
	var err error
	alloc := allocBytes(func() { _, err = readFrame(bytes.NewReader(hostileFrame), DefaultMaxFrameBytes) })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("readFrame = %v, want io.ErrUnexpectedEOF", err)
	}
	checkAllocBound(t, "readFrame", alloc, len(hostileFrame))
}

// FuzzReadFrame reads each input under fuzzMaxFrame. An input whose
// length field that limit rejects before any read is read again under
// DefaultMaxFrameBytes, where the field can claim up to 1 GiB and only
// the bytes that follow may size the buffer.
func FuzzReadFrame(f *testing.F) {
	f.Add(hostileFrame)
	f.Fuzz(func(t *testing.T, in []byte) {
		checkReadFrame(t, in, fuzzMaxFrame)
		if len(in) >= 4 && binary.LittleEndian.Uint32(in) > fuzzMaxFrame {
			checkReadFrame(t, in, DefaultMaxFrameBytes)
		}
	})
}

// checkReadFrame reads one frame from in under maxBytes and checks the
// allocation bound, the limit, and that an accepted frame re-encodes to
// the bytes consumed.
func checkReadFrame(t *testing.T, in []byte, maxBytes int) {
	t.Helper()
	src := bytes.NewReader(in)
	var payload []byte
	var err error
	alloc := allocBytes(func() { payload, err = readFrame(src, maxBytes) })
	checkAllocBound(t, "readFrame", alloc, len(in))
	if err != nil {
		return
	}
	if len(payload) > maxBytes {
		t.Fatalf("accepted a %d-byte frame over the %d-byte limit", len(payload), maxBytes)
	}
	var enc bytes.Buffer
	if err := writeFrame(&enc, payload); err != nil {
		t.Fatal(err)
	}
	if consumed := in[:len(in)-src.Len()]; !bytes.Equal(enc.Bytes(), consumed) {
		t.Fatalf("accepted frame re-encodes to %x, consumed %x", enc.Bytes(), consumed)
	}
}

// TestSeedNamesMatchDecoding keeps the seed corpora honest: a seed whose
// name starts with "valid-" decodes, and every other seed is rejected,
// so a protocol change that flips a seed's outcome shows up as a wrong
// name instead of a silently weaker corpus.
func TestSeedNamesMatchDecoding(t *testing.T) {
	decoders := map[string]func([]byte) error{
		"FuzzDecodeJob":    func(p []byte) error { _, err := decodeJob(p, fuzzLimits); return err },
		"FuzzDecodeResult": func(p []byte) error { _, err := decodeResult(p); return err },
	}
	for target, decode := range decoders {
		dir := filepath.Join("testdata", "fuzz", target)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			lit, ok := strings.CutPrefix(strings.TrimSpace(string(b)), "go test fuzz v1\n[]byte(")
			lit, ok2 := strings.CutSuffix(lit, ")")
			payload, err := strconv.Unquote(lit)
			if !ok || !ok2 || err != nil {
				t.Fatalf("%s/%s: not a one-[]byte corpus file", target, ent.Name())
			}
			valid := strings.HasPrefix(ent.Name(), "valid-")
			if err := decode([]byte(payload)); (err == nil) != valid {
				t.Errorf("%s/%s: decode error %v, but the name says valid = %t", target, ent.Name(), err, valid)
			}
		}
	}
}
