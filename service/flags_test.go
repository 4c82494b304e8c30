package service

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
)

// flagsOffset locates the flags byte inside a job payload (after the
// type byte): id(8) + tenant length(2) + tenant + timeout(8) +
// strategy(1).
func flagsOffset(tenant string) int { return 8 + 2 + len(tenant) + 8 + 1 }

// oldBackendFrame builds the job frame a client that predates the
// removal of backend selection sends: flag bit 1 set and a
// length-prefixed backend name appended after the matrix data.
func oldBackendFrame(j *jobRequest, backend string) []byte {
	frame := encodeJob(j)
	frame[1+flagsOffset(j.Tenant)] |= 1 << 1
	frame = binary.LittleEndian.AppendUint16(frame, uint16(len(backend)))
	return append(frame, backend...)
}

// TestDecodeJobRejectsUnknownFlagBits: every flag bit is rejected before
// the matrix is read, with a message naming the bit — including bit 0,
// which once selected the ε = 0 variant, and bit 1, so an old client's
// backend job is never misparsed.
func TestDecodeJobRejectsUnknownFlagBits(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	j := &jobRequest{ID: 4, Tenant: "t", A: randMat(rng, 10, 4)}
	for bit := 0; bit <= 7; bit++ {
		payload := encodeJob(j)
		payload[1+flagsOffset(j.Tenant)] |= 1 << bit
		_, err := decodeJob(payload[1:], testLimits())
		if err == nil {
			t.Fatalf("bit %d: decode accepted an unknown flag bit", bit)
		}
		if !strings.Contains(err.Error(), "unknown flag bits "+strconv.Itoa(bit)) {
			t.Fatalf("bit %d: error %q does not name the bit", bit, err)
		}
	}
	payload := encodeJob(j)
	payload[1+flagsOffset(j.Tenant)] |= 1<<1 | 1<<6
	if _, err := decodeJob(payload[1:], testLimits()); err == nil || !strings.Contains(err.Error(), "bits 1, 6") {
		t.Fatalf("two unknown bits: error %v, want both named", err)
	}
	if _, err := decodeJob(oldBackendFrame(j, "mixed32")[1:], testLimits()); err == nil {
		t.Fatal("decode accepted an old client's backend frame")
	}
	if _, err := decodeJob(encodeJob(j)[1:], testLimits()); err != nil {
		t.Fatalf("no flag bits: %v", err)
	}
}

// TestOldBackendJobRejectedOverWire: a served job from a client that
// still sends a backend name gets StatusInvalid naming flag bit 1, and
// never costs an admission slot.
func TestOldBackendJobRejectedOverWire(t *testing.T) {
	srv := startServer(t, Config{})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	before := srv.Stats().Accepted
	if err := writeFrame(conn, oldBackendFrame(&jobRequest{ID: 9, Tenant: "old", A: randMat(rng, 40, 6)}, "native")); err != nil {
		t.Fatal(err)
	}
	payload, err := readFrame(conn, DefaultMaxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	if payload[0] != msgResult {
		t.Fatalf("response type %d, want a result frame", payload[0])
	}
	res, err := decodeResult(payload[1:])
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != 9 || res.Status != StatusInvalid {
		t.Fatalf("response id %d status %v, want id 9 %v", res.ID, res.Status, StatusInvalid)
	}
	if got := statusErr(res.Status, res.Msg); !errors.Is(got, ErrInvalid) || !strings.Contains(got.Error(), "bits 1") {
		t.Fatalf("rejection %v, want ErrInvalid naming flag bit 1", got)
	}
	if after := srv.Stats().Accepted; after != before {
		t.Fatalf("rejected job consumed an admission slot (accepted %d → %d)", before, after)
	}
}
