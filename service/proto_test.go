package service

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	tsqrcp "repro"
	"repro/mat"
)

func testLimits() Limits {
	return Limits{MaxRows: 1 << 20, MaxCols: 512, MaxFrameBytes: DefaultMaxFrameBytes}
}

func randMat(rng *rand.Rand, m, n int) *mat.Dense {
	a := mat.NewDense(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	return a
}

// sameBits reports bit-exact equality of two matrices.
func sameBits(a, b *mat.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

func TestJobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := &jobRequest{
		ID:       42,
		Tenant:   "team-a",
		Timeout:  150 * time.Millisecond,
		Strategy: tsqrcp.StrategyCQRRPT,
		Seed:     7,
		PivotTol: 1e-6,
		A:        randMat(rng, 40, 8),
	}
	payload := encodeJob(in)
	if payload[0] != msgJob {
		t.Fatalf("type byte = %d, want %d", payload[0], msgJob)
	}
	out, err := decodeJob(payload[1:], testLimits())
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Tenant != in.Tenant || out.Timeout != in.Timeout ||
		out.Strategy != in.Strategy || out.Seed != in.Seed || out.PivotTol != in.PivotTol {
		t.Fatalf("header mismatch: %+v vs %+v", out, in)
	}
	if !sameBits(out.A, in.A) {
		t.Fatal("matrix not bit-identical after round trip")
	}
}

// TestJobRoundTripStrided checks that a strided view serializes its
// logical contents, not its backing array.
func TestJobRoundTripStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	full := randMat(rng, 20, 10)
	view := full.Slice(2, 12, 1, 7)
	payload := encodeJob(&jobRequest{ID: 1, A: view})
	out, err := decodeJob(payload[1:], testLimits())
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(out.A, view) {
		t.Fatal("strided view not preserved")
	}
}

func TestResultRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := &jobResult{
		ID:         9,
		Status:     StatusOK,
		Iterations: 3,
		Perm:       mat.Perm{2, 0, 1},
		Q:          randMat(rng, 12, 3),
		R:          randMat(rng, 3, 3),
	}
	out, err := decodeResult(encodeResult(in)[1:])
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != 9 || out.Status != StatusOK || out.Iterations != 3 {
		t.Fatalf("header mismatch: %+v", out)
	}
	for i := range in.Perm {
		if out.Perm[i] != in.Perm[i] {
			t.Fatalf("perm[%d] = %d, want %d", i, out.Perm[i], in.Perm[i])
		}
	}
	if !sameBits(out.Q, in.Q) || !sameBits(out.R, in.R) {
		t.Fatal("factors not bit-identical after round trip")
	}
}

func TestErrorResultRoundTrip(t *testing.T) {
	for st, want := range map[Status]error{
		StatusOverloaded:       ErrOverloaded,
		StatusDeadlineExceeded: ErrDeadlineExceeded,
		StatusInvalid:          ErrInvalid,
		StatusFailed:           ErrFailed,
		StatusShuttingDown:     ErrShuttingDown,
	} {
		out, err := decodeResult(encodeResult(&jobResult{ID: 5, Status: st, Msg: "because"})[1:])
		if err != nil {
			t.Fatal(err)
		}
		got := statusErr(out.Status, out.Msg)
		if !errors.Is(got, want) {
			t.Errorf("status %v mapped to %v, want errors.Is %v", st, got, want)
		}
		if !strings.Contains(got.Error(), "because") {
			t.Errorf("status %v lost the message: %v", st, got)
		}
	}
}

func TestDecodeJobRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lim := Limits{MaxRows: 100, MaxCols: 8, MaxFrameBytes: DefaultMaxFrameBytes}
	cases := []struct {
		name string
		job  *jobRequest
	}{
		{"wide", &jobRequest{A: randMat(rng, 4, 6)}},
		{"over max rows", &jobRequest{A: randMat(rng, 101, 4)}},
		{"over max cols", &jobRequest{A: randMat(rng, 50, 9)}},
		{"bad strategy", &jobRequest{Strategy: 99, A: randMat(rng, 8, 4)}},
		{"nan tol", &jobRequest{PivotTol: math.NaN(), A: randMat(rng, 8, 4)}},
	}
	for _, tc := range cases {
		if _, err := decodeJob(encodeJob(tc.job)[1:], lim); err == nil {
			t.Errorf("%s: decode accepted an invalid job", tc.name)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	payload := encodeJob(&jobRequest{ID: 1, A: randMat(rng, 10, 4)})[1:]
	for _, cut := range []int{0, 1, 8, 20, len(payload) - 1} {
		if _, err := decodeJob(payload[:cut], testLimits()); err == nil {
			t.Errorf("decode accepted a frame truncated to %d bytes", cut)
		}
	}
	// Trailing garbage is an error too, not silently ignored.
	if _, err := decodeJob(append(append([]byte{}, payload...), 0), testLimits()); err == nil {
		t.Error("decode accepted trailing bytes")
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(&buf, 50); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("readFrame = %v, want errFrameTooLarge", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	// The last payload outgrows frameStep, so a cold pool reads it in
	// doubling steps.
	payloads := [][]byte{{1, 2, 3}, {}, bytes.Repeat([]byte{0xAB}, 1000), bytes.Repeat([]byte{0xCD}, 3*frameStep+5)}
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := readFrame(&buf, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %v, want %v", got, want)
		}
	}
}
