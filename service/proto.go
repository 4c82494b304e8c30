package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	tsqrcp "repro"
	"repro/mat"
)

// Wire protocol: every message is one length-prefixed frame,
//
//	uint32  payload length (little-endian, excludes the prefix itself)
//	byte    message type (msgJob, msgResult, msgStats, msgStatsResult)
//	...     type-specific body, all integers little-endian
//
// A job body is
//
//	uint64   job id (echoed in the response; client-chosen)
//	uint16   tenant length, then tenant bytes (≤ MaxTenantLen)
//	int64    relative deadline in nanoseconds (0 = none)
//	uint8    strategy (tsqrcp.Strategy)
//	uint8    flags (no bit assigned: must be 0)
//	uint64   seed
//	float64  pivot tolerance (0 = DefaultPivotTol)
//	uint32   m, uint32 n (tall-skinny: m ≥ n ≥ 1)
//	m·n·8    row-major float64 matrix data
//
// and a result body is
//
//	uint64   job id
//	uint8    status
//	status OK:    uint32 iterations, uint32 n, n·uint32 perm,
//	              uint32 m, m·n·8 Q, n·n·8 R
//	status != OK: uint16 message length, then message bytes
//
// The deadline travels as a relative duration, not an absolute
// timestamp, so client and server clocks need not agree; the server
// anchors it to the moment the frame is decoded.
//
// A job that sets any flag bit is rejected with StatusInvalid before its
// matrix is read, so a future extension announced by a flag bit fails
// cleanly on a server that predates it. Bits 0 and 1 once selected the
// ε = 0 variant and announced a backend-name field; reusing either
// would misparse frames from clients that still set them.

const (
	msgJob         = 1
	msgResult      = 2
	msgStats       = 3
	msgStatsResult = 4
)

// MaxTenantLen bounds the tenant identifier.
const MaxTenantLen = 128

// DefaultMaxFrameBytes bounds a single frame (1 GiB fits an
// m=2²⁴ × n=8 job or an m=2²¹ × n=64 response).
const DefaultMaxFrameBytes = 1 << 30

// Status is the job outcome code carried in a result frame.
type Status uint8

const (
	// StatusOK: the job was factored; Q, R, Perm follow.
	StatusOK Status = iota
	// StatusOverloaded: admission control rejected the job — the bounded
	// queue was full or the tenant's engine-width budget was exhausted.
	// Backpressure, not failure: retry with jitter against a healthy
	// server, or shed load.
	StatusOverloaded
	// StatusDeadlineExceeded: the job's deadline passed before a result
	// could be produced (while queued, mid-factorization, or just after).
	StatusDeadlineExceeded
	// StatusInvalid: the job was malformed or outside the server's shape
	// limits.
	StatusInvalid
	// StatusFailed: the factorization itself failed numerically
	// (ErrBreakdown), or found the matrix rank-deficient: the result
	// frame has no rank field, so a Rank < n factorization is answered
	// with this status and a message naming the rank.
	StatusFailed
	// StatusShuttingDown: the server is draining and admits no new jobs.
	StatusShuttingDown
	// Status 6 stays unassigned: it once meant "unknown backend", and an
	// old client would misread a reuse of it.
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusOverloaded:
		return "overloaded"
	case StatusDeadlineExceeded:
		return "deadline exceeded"
	case StatusInvalid:
		return "invalid job"
	case StatusFailed:
		return "factorization failed"
	case StatusShuttingDown:
		return "shutting down"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Sentinel errors the client maps result statuses to; test with
// errors.Is. A past-deadline job is ErrDeadlineExceeded, distinct from
// ErrOverloaded (admission backpressure) and ErrFailed (numerics).
var (
	ErrOverloaded       = errors.New("service: server overloaded")
	ErrDeadlineExceeded = errors.New("service: job deadline exceeded")
	ErrInvalid          = errors.New("service: invalid job")
	ErrFailed           = errors.New("service: factorization failed")
	ErrShuttingDown     = errors.New("service: server shutting down")
	// ErrServerClosed is returned by Serve after a graceful Shutdown.
	ErrServerClosed = errors.New("service: server closed")
)

// statusErr maps a non-OK result to its sentinel error.
func statusErr(st Status, msg string) error {
	var base error
	switch st {
	case StatusOverloaded:
		base = ErrOverloaded
	case StatusDeadlineExceeded:
		base = ErrDeadlineExceeded
	case StatusInvalid:
		base = ErrInvalid
	case StatusFailed:
		base = ErrFailed
	case StatusShuttingDown:
		base = ErrShuttingDown
	default:
		return fmt.Errorf("service: unknown status %d: %s", st, msg)
	}
	if msg == "" {
		return base
	}
	return fmt.Errorf("%w: %s", base, msg)
}

// jobRequest is a decoded job frame.
type jobRequest struct {
	ID       uint64
	Tenant   string
	Timeout  time.Duration // relative deadline; 0 = none
	Strategy tsqrcp.Strategy
	Seed     uint64
	PivotTol float64
	A        *mat.Dense
}

// options converts the wire fields to factorization options.
func (j *jobRequest) options() *tsqrcp.Options {
	return &tsqrcp.Options{
		PivotTol: j.PivotTol,
		Strategy: j.Strategy,
		Seed:     j.Seed,
	}
}

// jobResult is a decoded result frame.
type jobResult struct {
	ID         uint64
	Status     Status
	Msg        string
	Iterations int
	Perm       mat.Perm
	Q, R       *mat.Dense
}

// Limits are the server-side shape bounds a job must satisfy.
type Limits struct {
	MaxRows, MaxCols int
	MaxFrameBytes    int
}

var errFrameTooLarge = errors.New("service: frame exceeds size limit")

// Frame pool. Request and response frames are recycled through
// size-classed sync.Pools: class k holds byte slices of capacity 2^k,
// so a frame re-enters the class it can always serve. Whoever ends a
// frame's life returns it: the reader once the frame is decoded, and
// connWriter.send once it is written. A frame whose bytes escape to a
// caller (a stats blob) is never returned.
var framePools [64]sync.Pool // *[]byte, cap ≥ 2^k

// frameClass returns the smallest k with 2^k ≥ n (n ≥ 1).
func frameClass(n int) int { return bits.Len(uint(n - 1)) }

// pooledFrame returns a length-n frame from the pool, or nil when the
// pool holds none of n's class; it never allocates.
func pooledFrame(n int) []byte {
	if n == 0 {
		return nil
	}
	if v := framePools[frameClass(n)].Get(); v != nil {
		return (*v.(*[]byte))[:n]
	}
	return nil
}

// getFrame returns a length-n frame, from the pool when it holds one.
func getFrame(n int) []byte {
	if b := pooledFrame(n); b != nil || n == 0 {
		return b
	}
	return make([]byte, n, 1<<frameClass(n))
}

// putFrame returns a frame to the pool; the caller must not retain it
// or any slice of it.
func putFrame(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	framePools[bits.Len(uint(cap(b)))-1].Put(&b)
}

// frameStep is the first buffer of a frame the pool cannot serve. The
// buffer then doubles as bytes arrive, so a frame that stops short of its
// claimed length has cost at most frameStep plus four times the bytes it
// delivered.
const frameStep = 64 << 10

// writeFrame emits one length-prefixed frame in a single write: on a
// TCP connection net.Buffers is one writev.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	bufs := net.Buffers{hdr[:], payload}
	_, err := bufs.WriteTo(w)
	return err
}

// readFrame reads one frame into a pooled buffer, rejecting payloads
// over maxBytes before reading them. The length field picks a pooled
// buffer only when one is idle; otherwise the buffer grows from
// frameStep with the bytes received, so a length field never sizes an
// allocation. Return the payload with putFrame once it is decoded.
func readFrame(r io.Reader, maxBytes int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	claim := binary.LittleEndian.Uint32(hdr[:])
	if int64(claim) > int64(maxBytes) {
		return nil, fmt.Errorf("%w: %d > %d bytes", errFrameTooLarge, claim, maxBytes)
	}
	n := int(claim)
	buf := pooledFrame(n)
	if buf == nil {
		buf = getFrame(min(n, frameStep))
	}
	for got := 0; ; {
		k, err := io.ReadFull(r, buf[got:])
		got += k
		if err != nil {
			putFrame(buf)
			if err == io.EOF && got > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if got == n {
			return buf, nil
		}
		next := getFrame(min(2*len(buf), n))
		copy(next, buf)
		putFrame(buf)
		buf = next
	}
}

// appendDense appends m's rows (row-major, stride-compacted) to buf.
func appendDense(buf []byte, m *mat.Dense) []byte {
	for i := 0; i < m.Rows; i++ {
		buf = mat.AppendFloat64s(buf, m.Data[i*m.Stride:i*m.Stride+m.Cols])
	}
	return buf
}

// reader decodes a payload sequentially with bounds checking.
type reader struct {
	buf []byte
	off int
	err error
}

func (d *reader) need(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("service: truncated frame: need %d bytes at offset %d of %d", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *reader) u8() uint8 {
	if b := d.need(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *reader) u16() uint16 {
	if b := d.need(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (d *reader) u32() uint32 {
	if b := d.need(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *reader) u64() uint64 {
	if b := d.need(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *reader) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *reader) str(max int) string {
	n := int(d.u16())
	if d.err == nil && n > max {
		d.err = fmt.Errorf("service: string length %d exceeds limit %d", n, max)
		return ""
	}
	if b := d.need(n); b != nil {
		return string(b)
	}
	return ""
}

// dense reads an r×c row-major matrix.
func (d *reader) dense(r, c int) *mat.Dense {
	b := d.need(r * c * 8)
	if b == nil {
		return nil
	}
	m := mat.NewDense(r, c)
	mat.DecodeFloat64s(m.Data, b)
	return m
}

// rest asserts the payload was fully consumed.
func (d *reader) rest() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("service: %d trailing bytes in frame", len(d.buf)-d.off)
	}
	return nil
}

// encodeJob serializes a job frame payload into a pooled frame.
func encodeJob(j *jobRequest) []byte {
	m, n := j.A.Rows, j.A.Cols
	buf := getFrame(1 + 8 + 2 + len(j.Tenant) + 8 + 1 + 1 + 8 + 8 + 4 + 4 + m*n*8)[:0]
	buf = append(buf, msgJob)
	buf = binary.LittleEndian.AppendUint64(buf, j.ID)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(j.Tenant)))
	buf = append(buf, j.Tenant...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(j.Timeout))
	buf = append(buf, uint8(j.Strategy))
	buf = append(buf, 0) // flags
	buf = binary.LittleEndian.AppendUint64(buf, j.Seed)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(j.PivotTol))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = appendDense(buf, j.A)
	return buf
}

// flagBits names the set bits of a flags byte, e.g. "1, 3".
func flagBits(flags uint8) string {
	var names []string
	for b := 0; b < 8; b++ {
		if flags&(1<<b) != 0 {
			names = append(names, strconv.Itoa(b))
		}
	}
	return strings.Join(names, ", ")
}

// decodeJob parses a job payload (after the type byte) and validates it
// against lim. A shape outside the limits is an error here — before the
// matrix is materialized — so oversized jobs cost decode-header time
// only. A is drawn from mat's workspace pool; its owner returns it with
// mat.PutWorkspace.
func decodeJob(payload []byte, lim Limits) (*jobRequest, error) {
	d := &reader{buf: payload}
	j := &jobRequest{}
	j.ID = d.u64()
	j.Tenant = d.str(MaxTenantLen)
	j.Timeout = time.Duration(d.u64())
	j.Strategy = tsqrcp.Strategy(d.u8())
	flags := d.u8()
	j.Seed = d.u64()
	j.PivotTol = d.f64()
	m := int(d.u32())
	n := int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	if flags != 0 {
		return nil, fmt.Errorf("service: job sets unknown flag bits %s", flagBits(flags))
	}
	if j.Strategy != tsqrcp.StrategyIteCholQRCP && j.Strategy != tsqrcp.StrategyCQRRPT {
		return nil, fmt.Errorf("service: unknown strategy %d", j.Strategy)
	}
	if j.PivotTol < 0 || math.IsNaN(j.PivotTol) || math.IsInf(j.PivotTol, 0) {
		return nil, fmt.Errorf("service: pivot tolerance %g not a non-negative finite number", j.PivotTol)
	}
	if j.Timeout < 0 {
		return nil, fmt.Errorf("service: negative deadline %v", j.Timeout)
	}
	if n < 1 || m < n {
		return nil, fmt.Errorf("service: shape %dx%d not tall-skinny (need m ≥ n ≥ 1)", m, n)
	}
	if m > lim.MaxRows || n > lim.MaxCols {
		return nil, fmt.Errorf("service: shape %dx%d exceeds server limits %dx%d", m, n, lim.MaxRows, lim.MaxCols)
	}
	data := d.need(m * n * 8)
	if err := d.rest(); err != nil {
		return nil, err
	}
	j.A = mat.GetWorkspace(m, n, false)
	mat.DecodeFloat64s(j.A.Data, data)
	return j, nil
}

// encodeResult serializes a result frame payload into a pooled frame.
func encodeResult(r *jobResult) []byte {
	if r.Status != StatusOK {
		buf := getFrame(1 + 8 + 1 + 2 + len(r.Msg))[:0]
		buf = append(buf, msgResult)
		buf = binary.LittleEndian.AppendUint64(buf, r.ID)
		buf = append(buf, uint8(r.Status))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Msg)))
		return append(buf, r.Msg...)
	}
	m, n := r.Q.Rows, r.Q.Cols
	buf := getFrame(1 + 8 + 1 + 4 + 4 + 4*n + 4 + m*n*8 + n*n*8)[:0]
	buf = append(buf, msgResult)
	buf = binary.LittleEndian.AppendUint64(buf, r.ID)
	buf = append(buf, uint8(StatusOK))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Iterations))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	for _, p := range r.Perm {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m))
	buf = appendDense(buf, r.Q)
	return appendDense(buf, r.R)
}

// decodeResult parses a result payload (after the type byte).
func decodeResult(payload []byte) (*jobResult, error) {
	d := &reader{buf: payload}
	r := &jobResult{}
	r.ID = d.u64()
	r.Status = Status(d.u8())
	if r.Status != StatusOK {
		r.Msg = d.str(1 << 15)
		if err := d.rest(); err != nil {
			return nil, err
		}
		return r, nil
	}
	r.Iterations = int(d.u32())
	n := int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	if n < 1 || n*4 > len(payload) {
		return nil, fmt.Errorf("service: implausible result width %d", n)
	}
	r.Perm = make(mat.Perm, n)
	for i := range r.Perm {
		r.Perm[i] = int(d.u32())
	}
	m := int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	if !r.Perm.IsValid() {
		return nil, fmt.Errorf("service: result perm is not a permutation of %d columns", n)
	}
	if m < n || (len(payload)-d.off)/8 < m*n {
		return nil, fmt.Errorf("service: implausible result height %d", m)
	}
	r.Q = d.dense(m, n)
	r.R = d.dense(n, n)
	if err := d.rest(); err != nil {
		return nil, err
	}
	return r, nil
}

// encodeStatsRequest serializes a stats query.
func encodeStatsRequest(id uint64) []byte {
	buf := getFrame(9)[:0]
	buf = append(buf, msgStats)
	return binary.LittleEndian.AppendUint64(buf, id)
}

// encodeStatsResult wraps a JSON stats blob.
func encodeStatsResult(id uint64, blob []byte) []byte {
	buf := getFrame(9 + len(blob))[:0]
	buf = append(buf, msgStatsResult)
	buf = binary.LittleEndian.AppendUint64(buf, id)
	return append(buf, blob...)
}
