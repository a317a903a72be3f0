// Package wire defines vipersrv's binary protocol: length-prefixed
// frames carrying a request ID, an op code and an op-specific payload.
//
// The protocol is pipelined by construction. A client may have any
// number of requests outstanding on one connection; the request ID —
// chosen by the client, echoed verbatim by the server — is the only
// correlation. The server executes one connection's requests in arrival
// order, so a pipelined Put(k), Get(k) observes its own write.
//
// Frame layout (both directions, all integers big-endian):
//
//	uint32  length of the body (everything after this prefix)
//	uint64  request ID
//	uint8   op code (request) / status code (response)
//	...     op-specific payload
//
// Decoding is defensive: every field is bounds-checked against the
// slice it is read from, lengths are validated against MaxFrame before
// any allocation, and decoded byte slices alias the frame buffer (the
// caller copies if it retains them past the buffer's reuse). Hostile or
// truncated input must produce an error, never a panic or an over-read
// — FuzzDecodeFrame holds the package to that.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Limits. MaxValue bounds one record payload (matches the store's page
// unit); MaxFrame bounds a whole frame body, sized so the largest legal
// response (a full MultiGet batch of maximum-size values) still fits
// well under any accidental multi-gigabyte allocation.
const (
	// MaxValue is the largest value accepted in a Put or returned by a
	// read (the store rejects larger values anyway: one PMem page).
	MaxValue = 1 << 20
	// MaxKeys is the largest MultiGet batch.
	MaxKeys = 4096
	// MaxScanLimit is the largest Range entry count: it bounds the total
	// a Range cursor delivers across its continuation frames.
	MaxScanLimit = 65536
	// MaxRangeChunk is the most entries one Range response frame
	// carries; a longer range continues in follow-up requests resuming
	// at the frame's ResumeKey. Far below what MaxFrame could hold at
	// default value sizes — the cap exists to bound how long one frame
	// monopolises the connection (and the store's epoch pin), not to
	// protect the frame budget (which is still enforced by byte count).
	MaxRangeChunk = 4096
	// MaxFrame is the largest frame body (ID + op + payload) either side
	// accepts. Sized for a MultiGet response of MaxKeys records at the
	// store's default 200-byte values, with headroom for a few large
	// values; both sides chunk anything bigger at a higher level.
	MaxFrame = 16 << 20
	// minBody is the smallest legal body: ID (8) + op/status (1).
	minBody = 9
)

// Op identifies a request operation.
type Op uint8

// Request op codes. Zero is deliberately invalid.
const (
	OpPut Op = iota + 1
	OpGet
	OpDelete
	OpMultiGet
	// Code 5 was the one-frame scan that OpRange replaced. It stays
	// unassigned so every other op keeps its number; decoders reject it.
	_
	OpStats
	OpDrain
	// Code 8 was an admin toggle for a server mechanism that no longer
	// exists; like code 5 it stays unassigned and rejected.
	_
	// OpRange is the cursor-continuation scan: the server answers with
	// at most MaxRangeChunk entries plus a continuation header (More,
	// ResumeKey); the client resumes the range by issuing another
	// OpRange starting at ResumeKey, so one logical range can span many
	// frames without any frame nearing MaxFrame.
	OpRange
	opMax // sentinel: first invalid op
)

// String returns the wire name of the op.
func (o Op) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpDelete:
		return "delete"
	case OpMultiGet:
		return "multiget"
	case OpStats:
		return "stats"
	case OpDrain:
		return "drain"
	case OpRange:
		return "range"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Status is a response's result code. The server derives it from the
// store's typed error sentinels with errors.Is — never from message
// strings — and the client maps it back to a typed error with Err.
type Status uint8

// Response status codes.
const (
	StatusOK Status = iota
	StatusNotFound
	StatusFull
	StatusClosed
	StatusUnsupported
	StatusValueSize
	StatusBadRequest
	// StatusBackpressure is reserved: servers that refused requests over
	// a full in-flight window sent it. This server holds the window by
	// writing, not refusing, and never emits it; it stays decodable.
	StatusBackpressure
	StatusInternal
	statusMax // sentinel: first invalid status
)

// String returns the wire name of the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "not-found"
	case StatusFull:
		return "full"
	case StatusClosed:
		return "closed"
	case StatusUnsupported:
		return "unsupported"
	case StatusValueSize:
		return "value-size"
	case StatusBadRequest:
		return "bad-request"
	case StatusBackpressure:
		return "backpressure"
	case StatusInternal:
		return "internal"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Client-side typed errors, one per non-OK status the server can send.
// StatusNotFound is not an error (reads report it as a miss).
var (
	ErrFull         = errors.New("wire: store full")
	ErrClosed       = errors.New("wire: server closed")
	ErrUnsupported  = errors.New("wire: operation unsupported")
	ErrValueSize    = errors.New("wire: invalid value size")
	ErrBadRequest   = errors.New("wire: bad request")
	ErrBackpressure = errors.New("wire: in-flight window full")
	ErrInternal     = errors.New("wire: internal server error")
)

// Err maps a status to its typed client-side error; StatusOK and
// StatusNotFound map to nil (not-found is a miss, not a failure).
func (s Status) Err() error {
	switch s {
	case StatusOK, StatusNotFound:
		return nil
	case StatusFull:
		return ErrFull
	case StatusClosed:
		return ErrClosed
	case StatusUnsupported:
		return ErrUnsupported
	case StatusValueSize:
		return ErrValueSize
	case StatusBadRequest:
		return ErrBadRequest
	case StatusBackpressure:
		return ErrBackpressure
	}
	return ErrInternal
}

// Decode errors.
var (
	// ErrFrameTooBig rejects a length prefix above MaxFrame (or below
	// the minimum body) before anything is allocated or read.
	ErrFrameTooBig = errors.New("wire: frame length out of bounds")
	// ErrTruncated means a body ended before a field it promised.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrBadOp means an unknown op or status byte.
	ErrBadOp = errors.New("wire: unknown op code")
	// ErrBadPayload means a structurally invalid payload (over-limit
	// counts, inner lengths exceeding the body, trailing garbage).
	ErrBadPayload = errors.New("wire: malformed payload")
)

// Request is one decoded client request. Field use per op:
//
//	OpPut      Key, Value
//	OpGet      Key
//	OpDelete   Key
//	OpMultiGet Keys
//	OpRange    Key (start), Limit (remaining entries wanted, 1..MaxScanLimit; 0 is invalid)
//	OpStats    —
//	OpDrain    —
type Request struct {
	ID    uint64
	Op    Op
	Key   uint64
	Value []byte
	Keys  []uint64
	Limit uint32
}

// Entry is one key/value pair in a Range response.
type Entry struct {
	Key   uint64
	Value []byte
}

// Response is one decoded server response. Field use per status/op:
//
//	Get       Value (OK only)
//	Delete    Existed
//	MultiGet  Values (nil element = key absent)
//	Range     Entries, Cursor (true), More, ResumeKey
//	Stats     Value (JSON snapshot bytes)
//	Put/Drain —
type Response struct {
	ID      uint64
	Status  Status
	Value   []byte
	Values  [][]byte
	Entries []Entry
	Existed bool

	// Cursor marks a Range response: the payload carries a
	// continuation header (More + ResumeKey) ahead of the entries.
	// More reports that the range may continue; ResumeKey is where the
	// next OpRange request should start (exclusive of everything this
	// frame delivered).
	Cursor    bool
	More      bool
	ResumeKey uint64
}

// absentValue marks a missing key in a MultiGet response (a present
// value's length is bounded by MaxValue, far below this).
const absentValue = ^uint32(0)

// appendFrame reserves the length prefix, lets build append the body,
// then patches the prefix. Every encoder funnels through it so a frame
// is always self-consistent.
func appendFrame(dst []byte, build func([]byte) []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = build(dst)
	binary.BigEndian.PutUint32(dst[start:start+4], uint32(len(dst)-start-4))
	return dst
}

func appendU32(dst []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, v)
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, v)
}

// AppendRequest appends r's encoded frame (length prefix included) to
// dst and returns the extended slice.
func AppendRequest(dst []byte, r *Request) []byte {
	return appendFrame(dst, func(b []byte) []byte {
		b = appendU64(b, r.ID)
		b = append(b, byte(r.Op))
		switch r.Op {
		case OpPut:
			b = appendU64(b, r.Key)
			b = append(b, r.Value...)
		case OpGet, OpDelete:
			b = appendU64(b, r.Key)
		case OpMultiGet:
			b = appendU32(b, uint32(len(r.Keys)))
			for _, k := range r.Keys {
				b = appendU64(b, k)
			}
		case OpRange:
			b = appendU64(b, r.Key)
			b = appendU32(b, r.Limit)
		}
		return b
	})
}

// AppendResponse appends r's encoded frame (length prefix included) to
// dst and returns the extended slice. The response's payload shape is
// derived from which fields are populated, so the encoder works for any
// (op, status) combination the server produces.
func AppendResponse(dst []byte, r *Response) []byte {
	return appendFrame(dst, func(b []byte) []byte {
		b = appendU64(b, r.ID)
		b = append(b, byte(r.Status))
		switch {
		case r.Cursor:
			if r.More {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
			b = appendU64(b, r.ResumeKey)
			b = appendU32(b, uint32(len(r.Entries)))
			for _, e := range r.Entries {
				b = appendU64(b, e.Key)
				b = appendU32(b, uint32(len(e.Value)))
				b = append(b, e.Value...)
			}
		case r.Values != nil:
			b = appendU32(b, uint32(len(r.Values)))
			for _, v := range r.Values {
				if v == nil {
					b = appendU32(b, absentValue)
					continue
				}
				b = appendU32(b, uint32(len(v)))
				b = append(b, v...)
			}
		case r.Existed:
			b = append(b, 1)
		case r.Value != nil:
			b = append(b, r.Value...)
		}
		return b
	})
}

// ReadFrame reads one length-prefixed frame body (ID + op + payload,
// prefix stripped) from br. A frame that fits br's buffer is returned as
// a view of that buffer, with no copy; a larger one is copied into buf,
// which is grown when it is too small. Either way the body is valid
// only until the next read from br. io.EOF is returned unwrapped on a
// clean EOF before any prefix byte, so callers can distinguish
// "connection done" from a mid-frame cut (io.ErrUnexpectedEOF).
func ReadFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	prefix, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(prefix) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(prefix))
	if n < minBody || n > MaxFrame {
		return nil, fmt.Errorf("%w: %d", ErrFrameTooBig, n)
	}
	if 4+n <= br.Size() {
		frame, err := br.Peek(4 + n)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if _, err := br.Discard(4 + n); err != nil {
			return nil, err
		}
		// The capacity stops at the frame: a caller that recycles the body
		// as its next buf can never have br's own buffer filled from br.
		return frame[4 : 4+n : 4+n], nil
	}
	if _, err := br.Discard(4); err != nil {
		return nil, err
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// PeekID reads a frame body's request ID without decoding the rest —
// the client's reader routes on it before it knows the op. Returns 0
// for bodies too short to carry one (ReadFrame never yields those).
func PeekID(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// body wraps a frame body with a cursor; every read checks remaining
// length first, which is the whole over-read defence.
type body struct {
	b   []byte
	pos int
}

func (c *body) remaining() int { return len(c.b) - c.pos }

func (c *body) u8() (byte, error) {
	if c.remaining() < 1 {
		return 0, ErrTruncated
	}
	v := c.b[c.pos]
	c.pos++
	return v, nil
}

func (c *body) u32() (uint32, error) {
	if c.remaining() < 4 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint32(c.b[c.pos:])
	c.pos += 4
	return v, nil
}

func (c *body) u64() (uint64, error) {
	if c.remaining() < 8 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint64(c.b[c.pos:])
	c.pos += 8
	return v, nil
}

func (c *body) bytes(n int) ([]byte, error) {
	if n < 0 || c.remaining() < n {
		return nil, ErrTruncated
	}
	v := c.b[c.pos : c.pos+n : c.pos+n]
	c.pos += n
	return v, nil
}

// rest returns everything not yet consumed, through the same checked
// cursor path as every other read.
func (c *body) rest() []byte {
	v, err := c.bytes(c.remaining())
	if err != nil {
		return nil // unreachable: remaining() is in bounds by definition
	}
	return v
}

// DecodeRequest decodes a request frame body (as returned by
// ReadFrame). Returned slices alias b.
func DecodeRequest(b []byte) (Request, error) {
	var r Request
	if err := r.Decode(b); err != nil {
		return Request{}, err
	}
	return r, nil
}

// Decode is DecodeRequest into r. A MultiGet's keys are decoded into
// r.Keys' backing array, which is kept, emptied, across frames of other
// ops and grown only when a frame carries more keys than it holds: a
// reader that decodes every frame into one Request allocates no key
// slice per frame. Value aliases b. On error r holds no meaningful
// request.
func (r *Request) Decode(b []byte) error {
	keys := r.Keys[:0]
	*r = Request{Keys: keys}
	if len(b) > MaxFrame {
		return ErrFrameTooBig
	}
	c := body{b: b}
	var err error
	if r.ID, err = c.u64(); err != nil {
		return err
	}
	op, err := c.u8()
	if err != nil {
		return err
	}
	r.Op = Op(op)
	switch r.Op {
	case OpPut:
		if r.Key, err = c.u64(); err != nil {
			return err
		}
		r.Value = c.rest()
		if len(r.Value) > MaxValue {
			return fmt.Errorf("%w: value %d bytes", ErrBadPayload, len(r.Value))
		}
	case OpGet, OpDelete:
		if r.Key, err = c.u64(); err != nil {
			return err
		}
	case OpMultiGet:
		n, err := c.u32()
		if err != nil {
			return err
		}
		if n > MaxKeys {
			return fmt.Errorf("%w: %d keys", ErrBadPayload, n)
		}
		if c.remaining() != int(n)*8 {
			return fmt.Errorf("%w: key array size", ErrBadPayload)
		}
		if cap(keys) < int(n) {
			keys = make([]uint64, n)
		}
		r.Keys = keys[:n]
		for i := range r.Keys {
			r.Keys[i], _ = c.u64()
		}
	case OpRange:
		if r.Key, err = c.u64(); err != nil {
			return err
		}
		if r.Limit, err = c.u32(); err != nil {
			return err
		}
		// Zero is rejected, not "unlimited": an unbounded scan would let
		// one 21-byte frame snapshot the whole store and build a
		// response past MaxFrame. The cap bounds the total across
		// continuation frames, so one cursor cannot be asked to stream
		// the whole store either.
		if r.Limit == 0 || r.Limit > MaxScanLimit {
			return fmt.Errorf("%w: scan limit %d", ErrBadPayload, r.Limit)
		}
	case OpStats, OpDrain:
		// No payload.
	default:
		return fmt.Errorf("%w: %d", ErrBadOp, op)
	}
	if c.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, c.remaining())
	}
	return nil
}

// DecodeResponse decodes a response frame body for the given request
// op (the client knows which op it sent under this ID; the response
// payload shape depends on it). Returned slices alias b.
func DecodeResponse(op Op, b []byte) (Response, error) {
	if len(b) > MaxFrame {
		return Response{}, ErrFrameTooBig
	}
	c := body{b: b}
	var r Response
	var err error
	if r.ID, err = c.u64(); err != nil {
		return Response{}, err
	}
	st, err := c.u8()
	if err != nil {
		return Response{}, err
	}
	if st >= uint8(statusMax) {
		return Response{}, fmt.Errorf("%w: status %d", ErrBadOp, st)
	}
	r.Status = Status(st)
	if r.Status != StatusOK && r.Status != StatusNotFound {
		// Error responses carry no payload.
		if c.remaining() != 0 {
			return Response{}, fmt.Errorf("%w: payload on error status", ErrBadPayload)
		}
		return r, nil
	}
	switch op {
	case OpGet, OpStats:
		r.Value = c.rest()
		if len(r.Value) > MaxValue && op == OpGet {
			return Response{}, fmt.Errorf("%w: value %d bytes", ErrBadPayload, len(r.Value))
		}
	case OpDelete:
		// The flag byte is present only when the key existed (the encoder
		// derives payload shape from populated fields); no payload means
		// the delete found nothing.
		if r.Status == StatusOK && c.remaining() > 0 {
			ex, err := c.u8()
			if err != nil {
				return Response{}, err
			}
			r.Existed = ex != 0
		}
	case OpMultiGet:
		n, err := c.u32()
		if err != nil {
			return Response{}, err
		}
		if n > MaxKeys {
			return Response{}, fmt.Errorf("%w: %d values", ErrBadPayload, n)
		}
		r.Values = make([][]byte, n)
		for i := range r.Values {
			vlen, err := c.u32()
			if err != nil {
				return Response{}, err
			}
			if vlen == absentValue {
				continue
			}
			if vlen > MaxValue {
				return Response{}, fmt.Errorf("%w: value %d bytes", ErrBadPayload, vlen)
			}
			if r.Values[i], err = c.bytes(int(vlen)); err != nil {
				return Response{}, err
			}
		}
	case OpRange:
		r.Cursor = true
		more, err := c.u8()
		if err != nil {
			return Response{}, err
		}
		r.More = more != 0
		if r.ResumeKey, err = c.u64(); err != nil {
			return Response{}, err
		}
		n, err := c.u32()
		if err != nil {
			return Response{}, err
		}
		if n > MaxRangeChunk {
			return Response{}, fmt.Errorf("%w: %d entries", ErrBadPayload, n)
		}
		// Pre-size conservatively: each entry needs at least 12 bytes, so
		// a hostile count can't force a huge allocation.
		if c.remaining() < int(n)*12 {
			return Response{}, ErrTruncated
		}
		r.Entries = make([]Entry, n)
		for i := range r.Entries {
			if r.Entries[i].Key, err = c.u64(); err != nil {
				return Response{}, err
			}
			vlen, err := c.u32()
			if err != nil {
				return Response{}, err
			}
			if vlen > MaxValue {
				return Response{}, fmt.Errorf("%w: value %d bytes", ErrBadPayload, vlen)
			}
			if r.Entries[i].Value, err = c.bytes(int(vlen)); err != nil {
				return Response{}, err
			}
		}
	case OpPut, OpDrain:
		// No payload.
	default:
		return Response{}, fmt.Errorf("%w: %d", ErrBadOp, uint8(op))
	}
	if c.remaining() != 0 {
		return Response{}, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, c.remaining())
	}
	return r, nil
}
