package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
)

// stripPrefix drops the 4-byte length prefix, returning the frame body
// the decoders take.
func stripPrefix(t *testing.T, frame []byte) []byte {
	t.Helper()
	if len(frame) < 4 {
		t.Fatalf("frame too short: %d bytes", len(frame))
	}
	n := binary.BigEndian.Uint32(frame)
	if int(n) != len(frame)-4 {
		t.Fatalf("length prefix %d != body %d", n, len(frame)-4)
	}
	return frame[4:]
}

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{ID: 1, Op: OpPut, Key: 42, Value: []byte("hello")},
		{ID: 2, Op: OpPut, Key: 0, Value: []byte{0}}, // 1-byte value
		{ID: 3, Op: OpGet, Key: ^uint64(0)},
		{ID: 4, Op: OpDelete, Key: 7},
		{ID: 5, Op: OpMultiGet, Keys: []uint64{1, 2, 3, 1 << 40}},
		{ID: 6, Op: OpMultiGet, Keys: []uint64{}},
		{ID: 8, Op: OpStats},
		{ID: 9, Op: OpDrain},
		{ID: 12, Op: OpRange, Key: 500, Limit: MaxScanLimit},
		{ID: 13, Op: OpRange, Key: 0, Limit: 1},
	}
	for _, want := range cases {
		t.Run(want.Op.String(), func(t *testing.T) {
			frame := AppendRequest(nil, &want)
			got, err := DecodeRequest(stripPrefix(t, frame))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			// Empty slices decode as empty, nil encodes as empty.
			if len(got.Keys) == 0 {
				got.Keys = want.Keys
			}
			if len(got.Value) == 0 && len(want.Value) == 0 {
				got.Value = want.Value
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		op   Op
		r    Response
	}{
		{"put-ok", OpPut, Response{ID: 1, Status: StatusOK}},
		{"put-full", OpPut, Response{ID: 2, Status: StatusFull}},
		{"get-ok", OpGet, Response{ID: 3, Status: StatusOK, Value: []byte("v")}},
		{"get-miss", OpGet, Response{ID: 4, Status: StatusNotFound}},
		{"delete-existed", OpDelete, Response{ID: 5, Status: StatusOK, Existed: true}},
		{"delete-absent", OpDelete, Response{ID: 6, Status: StatusOK}},
		{"delete-unsupported", OpDelete, Response{ID: 7, Status: StatusUnsupported}},
		{"multiget", OpMultiGet, Response{ID: 8, Status: StatusOK,
			Values: [][]byte{[]byte("a"), nil, []byte("ccc")}}},
		{"multiget-empty", OpMultiGet, Response{ID: 9, Status: StatusOK, Values: [][]byte{}}},
		{"stats", OpStats, Response{ID: 12, Status: StatusOK, Value: []byte(`{"ok":true}`)}},
		{"drain", OpDrain, Response{ID: 13, Status: StatusOK}},
		{"backpressure", OpGet, Response{ID: 14, Status: StatusBackpressure}},
		{"closed", OpPut, Response{ID: 15, Status: StatusClosed}},
		{"range-more", OpRange, Response{ID: 18, Status: StatusOK, Cursor: true,
			More: true, ResumeKey: 3,
			Entries: []Entry{{Key: 1, Value: []byte("x")}, {Key: 2, Value: []byte("yy")}}}},
		{"range-done", OpRange, Response{ID: 19, Status: StatusOK, Cursor: true,
			ResumeKey: 9, Entries: []Entry{{Key: 8, Value: []byte("z")}}}},
		{"range-empty", OpRange, Response{ID: 20, Status: StatusOK, Cursor: true,
			ResumeKey: 100, Entries: []Entry{}}},
		{"range-unsupported", OpRange, Response{ID: 21, Status: StatusUnsupported}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame := AppendResponse(nil, &tc.r)
			got, err := DecodeResponse(tc.op, stripPrefix(t, frame))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			want := tc.r
			// Normalise nil-vs-empty for the comparison: the wire cannot
			// distinguish an empty slice from nil for zero-length payloads.
			norm := func(r *Response) {
				if len(r.Value) == 0 {
					r.Value = nil
				}
				if len(r.Values) == 0 {
					r.Values = nil
				}
				if len(r.Entries) == 0 {
					r.Entries = nil
				}
			}
			norm(&got)
			norm(&want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestReadFrame(t *testing.T) {
	want := Request{ID: 99, Op: OpGet, Key: 123}
	frame := AppendRequest(nil, &want)
	// Two frames back to back exercise the reader's framing.
	stream := append(append([]byte{}, frame...), frame...)
	br := bufio.NewReader(bytes.NewReader(stream))
	for i := 0; i < 2; i++ {
		body, err := ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := DecodeRequest(body)
		if err != nil {
			t.Fatalf("frame %d decode: %v", i, err)
		}
		if got.ID != want.ID || got.Key != want.Key {
			t.Fatalf("frame %d: got %+v", i, got)
		}
	}
	if _, err := ReadFrame(br, nil); err != io.EOF {
		t.Fatalf("expected io.EOF at stream end, got %v", err)
	}
}

func TestReadFrameHostile(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"cut-prefix", []byte{0, 0}, io.ErrUnexpectedEOF},
		{"zero-length", []byte{0, 0, 0, 0}, ErrFrameTooBig},
		{"below-min", []byte{0, 0, 0, 5}, ErrFrameTooBig},
		{"huge", []byte{0xFF, 0xFF, 0xFF, 0xFF}, ErrFrameTooBig},
		{"cut-body", []byte{0, 0, 0, 9, 1, 2, 3}, io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			br := bufio.NewReader(bytes.NewReader(tc.data))
			_, err := ReadFrame(br, nil)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestReadFrameViewMatchesCopy feeds one byte stream through readers of
// three sizes, so the same frames come back as views of the read buffer
// (whole, or straddling a refill) from one reader and through the copy
// path (frame larger than the buffer) from another. Every reader must
// yield the encoded bodies and the same final error.
func TestReadFrameViewMatchesCopy(t *testing.T) {
	reqs := []Request{
		{ID: 1, Op: OpGet, Key: 7},
		{ID: 2, Op: OpPut, Key: 8, Value: bytes.Repeat([]byte("v"), 200)},
		{ID: 3, Op: OpDrain},                                                  // smallest legal body: fits even the 16-byte reader
		{ID: 4, Op: OpPut, Key: 9, Value: bytes.Repeat([]byte{0xC3}, 70<<10)}, // larger than every reader
		{ID: 5, Op: OpMultiGet, Keys: make([]uint64, 600)},                    // 4.8 KiB: over the 4 KiB reader
		{ID: 6, Op: OpGet, Key: 10},
		{ID: 7, Op: OpPut, Key: 11, Value: bytes.Repeat([]byte("w"), 3000)},
		{ID: 8, Op: OpGet, Key: 12},
	}
	var stream []byte
	var starts []int
	for i := range reqs {
		starts = append(starts, len(stream))
		stream = AppendRequest(stream, &reqs[i])
	}
	body := func(i int) []byte {
		end := len(stream)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		return stream[starts[i]+4 : end]
	}
	last := len(reqs) - 1
	cases := []struct {
		name   string
		stream []byte
		frames int   // whole frames before the error
		end    error // what the read after them returns
	}{
		{"whole", stream, len(reqs), io.EOF},
		{"cut-in-prefix", stream[:starts[last]+2], last, io.ErrUnexpectedEOF},
		{"cut-in-body", stream[:len(stream)-3], last, io.ErrUnexpectedEOF},
		{"cut-in-large-body", stream[:starts[3]+40<<10], 3, io.ErrUnexpectedEOF},
		{"oversize-prefix", append(stream[:starts[last]:starts[last]], 0xFF, 0xFF, 0xFF, 0xFF), last, ErrFrameTooBig},
		{"undersize-prefix", append(stream[:starts[last]:starts[last]], 0, 0, 0, 8), last, ErrFrameTooBig},
	}
	for _, tc := range cases {
		for _, size := range []int{16, 4 << 10, 64 << 10} {
			br := bufio.NewReaderSize(bytes.NewReader(tc.stream), size)
			var buf []byte
			for i := 0; ; i++ {
				got, err := ReadFrame(br, buf)
				if err != nil {
					if i != tc.frames || !errors.Is(err, tc.end) {
						t.Fatalf("%s, %d-byte reader: %v after %d frames, want %v after %d",
							tc.name, size, err, i, tc.end, tc.frames)
					}
					break
				}
				if i >= tc.frames || !bytes.Equal(got, body(i)) {
					t.Fatalf("%s, %d-byte reader: frame %d (%d bytes) is not the encoded body",
						tc.name, size, i, len(got))
				}
				buf = got[:0] // the callers' recycling pattern
			}
		}
	}
}

func TestDecodeRequestHostile(t *testing.T) {
	mk := func(r Request) []byte {
		return AppendRequest(nil, &r)[4:]
	}
	cases := []struct {
		name string
		body []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"id-only", make([]byte, 8), ErrTruncated},
		{"bad-op-zero", append(make([]byte, 8), 0), ErrBadOp},
		{"bad-op-high", append(make([]byte, 8), 200), ErrBadOp},
		{"get-cut-key", append(make([]byte, 8), byte(OpGet), 1, 2), ErrTruncated},
		{"multiget-over-limit", func() []byte {
			b := append(make([]byte, 8), byte(OpMultiGet))
			return binary.BigEndian.AppendUint32(b, MaxKeys+1)
		}(), ErrBadPayload},
		{"multiget-count-lies", func() []byte {
			b := append(make([]byte, 8), byte(OpMultiGet))
			b = binary.BigEndian.AppendUint32(b, 10) // promises 80 bytes
			return append(b, 1, 2, 3)
		}(), ErrBadPayload},
		{"retired-op-5", func() []byte {
			// Code 5 was the one-frame scan; a well-formed scan payload
			// under it must be refused, not routed anywhere.
			b := append(make([]byte, 8), 5)
			b = binary.BigEndian.AppendUint64(b, 1)
			return binary.BigEndian.AppendUint32(b, 10)
		}(), ErrBadOp},
		{"retired-op-8", func() []byte {
			// Code 8 was an admin toggle carrying one key; refused like 5.
			b := append(make([]byte, 8), 8)
			return binary.BigEndian.AppendUint64(b, 1)
		}(), ErrBadOp},
		{"range-zero-limit", func() []byte {
			// Limit 0 would mean "unlimited" to the store: one 21-byte
			// frame snapshotting everything. Must be rejected.
			b := append(make([]byte, 8), byte(OpRange))
			b = binary.BigEndian.AppendUint64(b, 1)
			return binary.BigEndian.AppendUint32(b, 0)
		}(), ErrBadPayload},
		{"range-over-limit", func() []byte {
			b := append(make([]byte, 8), byte(OpRange))
			b = binary.BigEndian.AppendUint64(b, 1)
			return binary.BigEndian.AppendUint32(b, MaxScanLimit+1)
		}(), ErrBadPayload},
		{"stats-trailing-garbage", append(mk(Request{Op: OpStats}), 0xAA), ErrBadPayload},
		{"drain-trailing-garbage", append(mk(Request{Op: OpDrain}), 1, 2, 3), ErrBadPayload},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeRequest(tc.body)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestDecodeResponseHostile(t *testing.T) {
	cases := []struct {
		name string
		op   Op
		body []byte
		want error
	}{
		{"empty", OpGet, nil, ErrTruncated},
		{"bad-status", OpGet, append(make([]byte, 8), 200), ErrBadOp},
		{"error-status-with-payload", OpGet,
			append(append(make([]byte, 8), byte(StatusFull)), 'x'), ErrBadPayload},
		{"multiget-count-lies", OpMultiGet, func() []byte {
			b := append(make([]byte, 8), byte(StatusOK))
			b = binary.BigEndian.AppendUint32(b, 3)
			return binary.BigEndian.AppendUint32(b, 100) // vlen 100, no bytes
		}(), ErrTruncated},
		{"multiget-over-limit", OpMultiGet, func() []byte {
			b := append(make([]byte, 8), byte(StatusOK))
			return binary.BigEndian.AppendUint32(b, MaxKeys+1)
		}(), ErrBadPayload},
		{"range-huge-count", OpRange, func() []byte {
			b := append(make([]byte, 8), byte(StatusOK), 0)
			b = binary.BigEndian.AppendUint64(b, 1)
			return binary.BigEndian.AppendUint32(b, MaxRangeChunk)
		}(), ErrTruncated},
		{"retired-op-5", Op(5), append(make([]byte, 8), byte(StatusOK)), ErrBadOp},
		{"retired-op-8", Op(8), append(make([]byte, 8), byte(StatusOK)), ErrBadOp},
		{"delete-trailing-garbage", OpDelete,
			append(append(make([]byte, 8), byte(StatusOK)), 1, 0xFF), ErrBadPayload},
		{"range-cut-header", OpRange,
			append(make([]byte, 8), byte(StatusOK), 1), ErrTruncated},
		{"range-over-chunk", OpRange, func() []byte {
			// A Range frame promising more entries than MaxRangeChunk is
			// malformed.
			b := append(make([]byte, 8), byte(StatusOK), 0)
			b = binary.BigEndian.AppendUint64(b, 1)
			return binary.BigEndian.AppendUint32(b, MaxRangeChunk+1)
		}(), ErrBadPayload},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeResponse(tc.op, tc.body)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestStatusErrMapping pins every status's wire name and typed error,
// and an unknown byte's.
func TestStatusErrMapping(t *testing.T) {
	cases := []struct {
		st   Status
		name string
		want error
	}{
		{StatusOK, "ok", nil},
		{StatusNotFound, "not-found", nil},
		{StatusFull, "full", ErrFull},
		{StatusClosed, "closed", ErrClosed},
		{StatusUnsupported, "unsupported", ErrUnsupported},
		{StatusValueSize, "value-size", ErrValueSize},
		{StatusBadRequest, "bad-request", ErrBadRequest},
		{StatusBackpressure, "backpressure", ErrBackpressure},
		{StatusInternal, "internal", ErrInternal},
		{Status(250), "status(250)", ErrInternal},
	}
	if len(cases) != int(statusMax)+1 {
		t.Fatalf("%d cases for %d statuses and one unknown", len(cases), statusMax)
	}
	for i, tc := range cases {
		if i < int(statusMax) && tc.st != Status(i) {
			t.Fatalf("case %d is status %d", i, tc.st)
		}
		if got := tc.st.String(); got != tc.name {
			t.Fatalf("Status(%d).String() = %q, want %q", uint8(tc.st), got, tc.name)
		}
		if got := tc.st.Err(); !errors.Is(got, tc.want) || (tc.want == nil && got != nil) {
			t.Fatalf("%v.Err() = %v, want %v", tc.st, got, tc.want)
		}
	}
}

func TestAppendFramePatchesLength(t *testing.T) {
	// Appending into a non-empty dst must patch the right prefix.
	head := []byte{0xDE, 0xAD}
	frame := AppendRequest(head, &Request{ID: 1, Op: OpDrain})
	if !bytes.Equal(frame[:2], head) {
		t.Fatal("dst head clobbered")
	}
	n := binary.BigEndian.Uint32(frame[2:6])
	if int(n) != len(frame)-6 {
		t.Fatalf("prefix %d != body %d", n, len(frame)-6)
	}
}
