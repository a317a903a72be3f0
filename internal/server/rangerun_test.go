package server

import (
	"bufio"
	"bytes"
	"sync"
	"testing"
	"time"

	"learnedpieces/internal/core"
	"learnedpieces/internal/epoch"
	"learnedpieces/internal/viper"
	"learnedpieces/internal/wire"
)

func rangeFrame(dst []byte, id, start uint64, limit uint32) []byte {
	return wire.AppendRequest(dst, &wire.Request{ID: id, Op: wire.OpRange, Key: start, Limit: limit})
}

// TestRangeRunMatchesFramesAlone: a burst of Range frames is answered
// as one run, byte for byte as each frame is answered sent alone, over a
// pgm store whose delta layers hold overwrites and deletes. The frames
// ask for more than a scan round (DefaultScanBatch) and more than a
// chunk (wire.MaxRangeChunk), start near 2⁶⁴−1, and run into values
// large enough that the frame budget (wire.MaxFrame) truncates a chunk,
// which also cuts the run at flushBytes right behind it. The burst is
// played with the key 2⁶⁴−1 held, where a chunk that delivers it has
// nowhere to resume, and again after it is deleted, where the scan
// behind the truncated chunk comes back short of its limit.
func TestRangeRunMatchesFramesAlone(t *testing.T) {
	srv, store, _ := startServer(t, "pgm", Config{})
	top := ^uint64(0)
	keys := append(seq(1, 6000), top-3, top-1, top)
	if err := store.BulkPut(keys, nil); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		var err error
		switch {
		case i%3 == 0:
			err = store.Put(k, bytes.Repeat([]byte{byte(i)}, 100+i%50))
		case i%5 == 1:
			_, err = store.Delete(k)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte{0xB1}, 900<<10) // 20 of them pass wire.MaxFrame
	for k := uint64(1 << 40); k < 1<<40+20; k++ {
		if err := store.Put(k, big); err != nil {
			t.Fatal(err)
		}
	}
	sc := scriptOn(t, srv)
	frames := []struct {
		start uint64
		limit uint32
	}{
		{1 << 40, 20}, {top - 4, 10}, {1, 50}, {40, 300}, {100, 5000}, {1<<40 + 18, 5},
		{5999, 3}, {7, 1}, {1 << 50, 3}, {top, 1}, {2, wire.MaxScanLimit},
	}
	for _, phase := range []string{"top held", "top deleted"} {
		if phase == "top deleted" {
			if _, err := store.Delete(top); err != nil {
				t.Fatal(err)
			}
		}
		var stream []byte
		alone := make([][]byte, len(frames))
		for i, f := range frames {
			id := uint64(i + 1)
			bodies, _, _ := sc.play(rangeFrame(nil, id, f.start, f.limit))
			if len(bodies) != 1 {
				t.Fatalf("%s: frame %d alone: %d responses", phase, i, len(bodies))
			}
			alone[i] = bodies[0]
			stream = rangeFrame(stream, id, f.start, f.limit)
		}
		if r, _ := wire.DecodeResponse(wire.OpRange, alone[0]); len(r.Entries) == 0 || len(r.Entries) >= 20 || !r.More {
			t.Fatalf("%s: frame 0 carries %d entries, more %v: want a chunk the frame budget truncated", phase, len(r.Entries), r.More)
		}
		bodies, writes, _ := sc.play(stream)
		if len(bodies) != len(frames) {
			t.Fatalf("%s: the run answered %d frames of %d", phase, len(bodies), len(frames))
		}
		for i := range frames {
			if !bytes.Equal(bodies[i], alone[i]) {
				t.Fatalf("%s: frame %d %+v: the run answered %d bytes, the frame alone %d, or other ones", phase, i, frames[i], len(bodies[i]), len(alone[i]))
			}
		}
		if writes < 2 {
			t.Fatalf("%s: %d writes for the run: it was not cut at flushBytes", phase, writes)
		}
	}
}

// TestRangeRunProgramOrder: a pipelined Put(k), Range over k, Delete(k),
// Range over k, Put(k), Range over k observes its own writes; each write
// ends the Range run before it and the next Range starts another.
func TestRangeRunProgramOrder(t *testing.T) {
	sc := newScript(t, 100, Config{})
	var stream []byte
	id := uint64(0)
	add := func(r wire.Request) {
		id++
		r.ID = id
		stream = wire.AppendRequest(stream, &r)
	}
	scans := func() {
		add(wire.Request{Op: wire.OpRange, Key: 7, Limit: 1})
		add(wire.Request{Op: wire.OpRange, Key: 6, Limit: 3})
	}
	add(wire.Request{Op: wire.OpPut, Key: 7, Value: []byte("first")})
	scans()
	add(wire.Request{Op: wire.OpDelete, Key: 7})
	scans()
	add(wire.Request{Op: wire.OpPut, Key: 7, Value: []byte("second")})
	scans()
	bodies, _, _ := sc.play(stream)
	if len(bodies) != int(id) {
		t.Fatalf("%d responses to %d frames", len(bodies), id)
	}
	want := [][]uint64{{7}, {6, 7, 8}, {8}, {6, 8, 9}, {7}, {6, 7, 8}}
	vals := []string{"first", "", "second"}
	for i, w := range want {
		r, err := wire.DecodeResponse(wire.OpRange, bodies[1+i/2*3+i%2])
		if err != nil || r.Status != wire.StatusOK {
			t.Fatalf("range %d: %v %v", i, err, r.Status)
		}
		var got []uint64
		for _, e := range r.Entries {
			got = append(got, e.Key)
			if e.Key == 7 && string(e.Value) != vals[i/2] {
				t.Fatalf("range %d read key 7 as %q, want %q", i, e.Value, vals[i/2])
			}
		}
		if !bytes.Equal(u64Bytes(got), u64Bytes(w)) {
			t.Fatalf("range %d delivered %v, want %v", i, got, w)
		}
	}
}

func u64Bytes(ks []uint64) []byte {
	var b []byte
	for _, k := range ks {
		b = append(b, byte(k), byte(k>>8))
	}
	return b
}

// gatedConn is a scripted connection whose writes block until the gate
// opens; writing is closed when the first write begins.
type gatedConn struct {
	scriptConn
	gate, writing chan struct{}
	first         sync.Once
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.first.Do(func() { close(c.writing) })
	<-c.gate
	return c.scriptConn.Write(p)
}

// TestRangeRunHoldsNoPinAcrossWrite: a Range run cut at flushBytes
// writes between its pieces, and while that write blocks, a concurrent
// Compact's retired pages are freed: the run holds no epoch pin across
// its socket write. Its buffer stays within two responses of flushBytes.
func TestRangeRunHoldsNoPinAcrossWrite(t *testing.T) {
	srv, store, _ := startServer(t, "xindex", Config{})
	if err := store.BulkPut(seq(1, 20_000), nil); err != nil {
		t.Fatal(err)
	}
	sc := scriptOn(t, srv)
	var stream []byte
	for i := uint64(0); i < 40; i++ {
		stream = rangeFrame(stream, i+1, 1+i*400, 100) // 40 × 21 KB of responses
	}
	c := &gatedConn{
		scriptConn: scriptConn{in: bytes.NewReader(stream), closed: make(chan struct{})},
		gate:       make(chan struct{}), writing: make(chan struct{}),
	}
	sc.ln.conns <- c
	select {
	case <-c.writing:
	case <-time.After(10 * time.Second):
		t.Fatal("the run never wrote")
	}
	b, _ := core.Lookup("xindex")
	region := store.Region()
	if _, err := store.Compact(b.New()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4 && region.FreeChunks(viper.PageSize) == 0; i++ {
		epoch.Advance()
	}
	freed := region.FreeChunks(viper.PageSize)
	close(c.gate)
	select {
	case <-c.closed:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not finish the scripted connection")
	}
	if freed == 0 {
		t.Fatal("Compact's retired pages stayed unfreed while a Range run wrote: a pin is held across the write")
	}
	// A cut drains the scan in flight: the buffer holds at most two
	// responses past flushBytes.
	const oneFrame = 4 + 9 + 9 + 4 + 100*(12+viper.DefaultValueSize)
	if max := srv.met.outMax.Load(); max > flushBytes+2*oneFrame {
		t.Fatalf("response buffer reached %d bytes, bound is %d", max, flushBytes+2*oneFrame)
	}
	br := bufio.NewReader(&c.out)
	for id := uint64(1); id <= 40; id++ {
		body, err := wire.ReadFrame(br, nil)
		if err != nil || wire.PeekID(body) != id || wire.Status(body[8]) != wire.StatusOK {
			t.Fatalf("response %d: %v", id, err)
		}
	}
}
