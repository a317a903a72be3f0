package wire

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeFrame holds the decoders to the package contract: hostile
// bytes may produce errors, never panics, over-reads, or oversized
// allocations. Both decoders run on every input (a response body is
// tried against every op, since the op comes from client-side state the
// attacker doesn't control but could still confuse). One Request is
// decoded into frame after frame, as a server connection does, and must
// agree with a fresh DecodeRequest on every frame.
func FuzzDecodeFrame(f *testing.F) {
	// Seed with one valid frame per op so the fuzzer starts from
	// structurally interesting corpora.
	seed := [][]byte{
		AppendRequest(nil, &Request{ID: 1, Op: OpPut, Key: 2, Value: []byte("v")}),
		AppendRequest(nil, &Request{ID: 2, Op: OpGet, Key: 3}),
		AppendRequest(nil, &Request{ID: 3, Op: OpDelete, Key: 4}),
		AppendRequest(nil, &Request{ID: 4, Op: OpMultiGet, Keys: []uint64{5, 6}}),
		AppendRequest(nil, &Request{ID: 5, Op: OpRange, Key: 7, Limit: 8}),
		AppendRequest(nil, &Request{ID: 6, Op: OpStats}),
		AppendRequest(nil, &Request{ID: 7, Op: OpDrain}),
		AppendResponse(nil, &Response{ID: 8, Status: StatusOK, Value: []byte("v")}),
		AppendResponse(nil, &Response{ID: 9, Status: StatusOK, Values: [][]byte{[]byte("a"), nil}}),
		AppendResponse(nil, &Response{ID: 10, Status: StatusOK, Cursor: true, More: true, ResumeKey: 2, Entries: []Entry{{Key: 1, Value: []byte("x")}}}),
		AppendResponse(nil, &Response{ID: 11, Status: StatusBackpressure}),
	}
	for _, s := range seed {
		f.Add(s)
	}
	ops := []Op{OpPut, OpGet, OpDelete, OpMultiGet, Op(5), OpStats, OpDrain, Op(8), OpRange}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Through the framed reader: must terminate with a frame or error,
		// never panic, even on garbage prefixes.
		br := bufio.NewReader(bytes.NewReader(data))
		var reused Request
		for {
			body, err := ReadFrame(br, nil)
			if err != nil {
				break
			}
			r, derr := DecodeRequest(body)
			if rerr := reused.Decode(body); (rerr == nil) != (derr == nil) {
				t.Fatalf("Decode into a reused Request: %v, DecodeRequest: %v", rerr, derr)
			}
			if derr == nil {
				got := reused
				if len(got.Keys) == 0 {
					got.Keys = r.Keys
				}
				if !reflect.DeepEqual(got, r) {
					t.Fatalf("Decode into a reused Request = %+v, DecodeRequest = %+v", got, r)
				}
				// Re-encode what decoded cleanly: decode(encode(decode(x)))
				// must also succeed (the codec is self-consistent).
				frame := AppendRequest(nil, &r)
				if _, rerr := DecodeRequest(frame[4:]); rerr != nil {
					t.Fatalf("re-decode of re-encoded request failed: %v", rerr)
				}
			}
			for _, op := range ops {
				_, _ = DecodeResponse(op, body)
			}
		}
		// Raw bodies too, bypassing framing (covers bodies ReadFrame
		// would reject by length).
		_, _ = DecodeRequest(data)
		for _, op := range ops {
			_, _ = DecodeResponse(op, data)
		}
	})
}
