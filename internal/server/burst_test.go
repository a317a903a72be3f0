package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"learnedpieces/internal/client"
	"learnedpieces/internal/epoch"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/wire"
)

// scriptConn is a connection whose client side is a prepared byte
// stream: every Read is served as fully as the stream allows, so the
// whole stream is "one write" that arrived before the server looked,
// then EOF. Writes are collected and counted.
type scriptConn struct {
	in     *bytes.Reader
	out    bytes.Buffer
	writes int
	closed chan struct{}
	once   sync.Once
}

func (c *scriptConn) Read(p []byte) (int, error) { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error) {
	c.writes++
	return c.out.Write(p)
}
func (c *scriptConn) Close() error                     { c.once.Do(func() { close(c.closed) }); return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// scriptListener hands out the connections sent on its channel.
type scriptListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *scriptListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}
func (l *scriptListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *scriptListener) Addr() net.Addr { return &net.TCPAddr{} }

// script is one server fed by scripted connections.
type script struct {
	t   *testing.T
	srv *Server
	ln  *scriptListener
}

// newScript boots a server over a store holding keys 1..n (default
// values) behind a scripted listener.
func newScript(t *testing.T, n int, cfg Config) *script {
	t.Helper()
	srv, store, _ := startServer(t, "xindex", cfg)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	if err := store.BulkPut(keys, nil); err != nil {
		t.Fatal(err)
	}
	return scriptOn(t, srv)
}

// scriptOn puts srv behind a scripted listener as well.
func scriptOn(t *testing.T, srv *Server) *script {
	ln := &scriptListener{conns: make(chan net.Conn), done: make(chan struct{})}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = ln.Close() })
	return &script{t: t, srv: srv, ln: ln}
}

// play sends stream as one connection's entire input and returns the
// response bodies in the order they were written, the number of socket
// writes, and the server's counter movement.
func (sc *script) play(stream []byte) (bodies [][]byte, writes int, d counters) {
	sc.t.Helper()
	before := sc.counters()
	c := &scriptConn{in: bytes.NewReader(stream), closed: make(chan struct{})}
	sc.ln.conns <- c
	select {
	case <-c.closed:
	case <-time.After(10 * time.Second):
		sc.t.Fatal("server did not finish the scripted connection")
	}
	br := bufio.NewReader(&c.out)
	for {
		body, err := wire.ReadFrame(br, nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			sc.t.Fatalf("response stream: %v", err)
		}
		bodies = append(bodies, append([]byte(nil), body...))
	}
	after := sc.counters()
	return bodies, c.writes, counters{
		runs: after.runs - before.runs, gets: after.gets - before.gets,
		full: after.full - before.full, input: after.input - before.input,
		accepted: after.accepted - before.accepted, bad: after.bad - before.bad,
	}
}

type counters struct{ runs, gets, full, input, accepted, bad int64 }

func (sc *script) counters() counters {
	m := sc.srv.Metrics()
	return counters{runs: m.CoalesceBatches, gets: m.CoalescedGets, full: m.FlushFull,
		input: m.FlushTimer, accepted: m.Accepted, bad: m.BadFrames}
}

func getFrames(dst []byte, firstID uint64, keys ...uint64) []byte {
	for i, k := range keys {
		dst = wire.AppendRequest(dst, &wire.Request{ID: firstID + uint64(i), Op: wire.OpGet, Key: k})
	}
	return dst
}

// seq returns lo, lo+1, ..., lo+n-1.
func seq(lo uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = lo + uint64(i)
	}
	return out
}

// wantOKInOrder checks that bodies answer ids firstID.. in order, all
// StatusOK.
func wantOKInOrder(t *testing.T, bodies [][]byte, firstID uint64, n int) {
	t.Helper()
	if len(bodies) != n {
		t.Fatalf("got %d responses, want %d", len(bodies), n)
	}
	for i, b := range bodies {
		if id := wire.PeekID(b); id != firstID+uint64(i) || wire.Status(b[8]) != wire.StatusOK {
			t.Fatalf("response %d: id %d status %v, want id %d ok", i, id, wire.Status(b[8]), firstID+uint64(i))
		}
	}
}

// TestGetRunBatching pins how one write of consecutive Gets reaches the
// store: exact counter movement per run shape.
func TestGetRunBatching(t *testing.T) {
	// A window above wire.MaxKeys, so only the run cap can cut a run.
	sc := newScript(t, 5000, Config{MaxInFlight: 2 * wire.MaxKeys})

	t.Run("one", func(t *testing.T) {
		bodies, writes, d := sc.play(getFrames(nil, 1, 7))
		wantOKInOrder(t, bodies, 1, 1)
		if d.runs != 0 || d.gets != 0 || d.full != 0 || d.input != 0 || writes != 1 {
			t.Fatalf("a lone Get is a Store.Get, no run: %+v, %d writes", d, writes)
		}
	})
	for _, n := range []int{2, 16} {
		bodies, writes, d := sc.play(getFrames(nil, 1, seq(1, n)...))
		wantOKInOrder(t, bodies, 1, n)
		if d != (counters{runs: 1, gets: int64(n), input: 1, accepted: int64(n)}) || writes != 1 {
			t.Fatalf("%d Gets in one write: %+v, %d writes; want one run of %d, one write", n, d, writes, n)
		}
	}
	t.Run("cap", func(t *testing.T) {
		n := wire.MaxKeys + 1
		bodies, _, d := sc.play(getFrames(nil, 1, seq(1, n)...))
		wantOKInOrder(t, bodies, 1, n)
		if d != (counters{runs: 1, gets: wire.MaxKeys, full: 1, accepted: int64(n)}) {
			t.Fatalf("MaxKeys+1 Gets: %+v; want one run of MaxKeys cut at the cap, then a lone Get", d)
		}
	})
	t.Run("split-by-put", func(t *testing.T) {
		stream := getFrames(nil, 1, seq(1, 8)...)
		stream = wire.AppendRequest(stream, &wire.Request{ID: 9, Op: wire.OpPut, Key: 3, Value: []byte("new")})
		stream = getFrames(stream, 10, seq(1, 8)...)
		bodies, writes, d := sc.play(stream)
		wantOKInOrder(t, bodies, 1, 17)
		if d != (counters{runs: 2, gets: 16, input: 2, accepted: 17}) || writes != 1 {
			t.Fatalf("8 Gets, Put, 8 Gets: %+v, %d writes; want two runs of 8 in one write", d, writes)
		}
		// Key 3 is the third Get of each run: the old value, then the new.
		if bytes.Equal(bodies[2][9:], []byte("new")) || !bytes.Equal(bodies[11][9:], []byte("new")) {
			t.Fatal("the Put did not land between the two runs")
		}
	})
	t.Run("window", func(t *testing.T) {
		sc := newScript(t, 100, Config{MaxInFlight: 8})
		bodies, writes, d := sc.play(getFrames(nil, 1, seq(1, 20)...))
		wantOKInOrder(t, bodies, 1, 20)
		if d != (counters{runs: 3, gets: 20, full: 2, input: 1, accepted: 20}) || writes != 3 {
			t.Fatalf("20 Gets under a window of 8: %+v, %d writes; want runs of 8, 8, 4 and three writes", d, writes)
		}
	})
}

// TestGetRunLargeValuesStayBounded: a run whose values overflow the
// response buffer is written out in rounds, so the buffer holds at most
// flushBytes plus one response whatever the values weigh.
func TestGetRunLargeValuesStayBounded(t *testing.T) {
	sc := newScript(t, 10, Config{})
	val := bytes.Repeat([]byte{0x5A}, 20<<10)
	stream := wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpPut, Key: 3, Value: val})
	keys := make([]uint64, 32)
	for i := range keys {
		keys[i] = 3
	}
	stream = getFrames(stream, 2, keys...)
	bodies, writes, _ := sc.play(stream)
	wantOKInOrder(t, bodies, 1, 33)
	for _, b := range bodies[1:] {
		if !bytes.Equal(b[9:], val) {
			t.Fatal("large value corrupted")
		}
	}
	if writes < 32*len(val)/(flushBytes+len(val)+13) {
		t.Fatalf("%d writes for %d bytes of responses", writes, 32*len(val))
	}
	if max := sc.srv.met.outMax.Load(); max > int64(flushBytes+len(val)+13) {
		t.Fatalf("response buffer reached %d bytes, bound is %d", max, flushBytes+len(val)+13)
	}
}

// TestProgramOrder: a connection observes its own pipelined writes.
func TestProgramOrder(t *testing.T) {
	_, _, addr := startServer(t, "xindex", Config{})
	// A second connection hammers disjoint keys meanwhile.
	other, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { _ = other.Close() }()
		ctx := context.Background()
		for k := uint64(1 << 20); ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := other.Put(ctx, k, []byte("x")); err != nil {
				t.Errorf("neighbour put: %v", err)
				return
			}
			if _, ok, err := other.Get(ctx, k); err != nil || !ok {
				t.Errorf("neighbour get: %v %v", ok, err)
				return
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()
	const keys = 64
	var stream []byte
	id := uint64(0)
	add := func(r wire.Request) {
		id++
		r.ID = id
		stream = wire.AppendRequest(stream, &r)
	}
	v1, v2 := []byte("first"), []byte("second")
	for k := uint64(1); k <= keys; k++ {
		add(wire.Request{Op: wire.OpPut, Key: k, Value: v1})
		add(wire.Request{Op: wire.OpGet, Key: k})
		add(wire.Request{Op: wire.OpPut, Key: k, Value: v2})
		add(wire.Request{Op: wire.OpGet, Key: k})
		add(wire.Request{Op: wire.OpDelete, Key: k})
		add(wire.Request{Op: wire.OpGet, Key: k})
	}
	if _, err := nc.Write(stream); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(nc)
	for i := uint64(1); i <= id; i++ {
		body, err := wire.ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if wire.PeekID(body) != i {
			t.Fatalf("response %d carries id %d: answers left arrival order", i, wire.PeekID(body))
		}
		st, payload := wire.Status(body[8]), body[9:]
		switch (i - 1) % 6 {
		case 1:
			if st != wire.StatusOK || !bytes.Equal(payload, v1) {
				t.Fatalf("Get after first Put: %v %q", st, payload)
			}
		case 3:
			if st != wire.StatusOK || !bytes.Equal(payload, v2) {
				t.Fatalf("Get after second Put: %v %q", st, payload)
			}
		case 5:
			if st != wire.StatusNotFound {
				t.Fatalf("Get after Delete: %v %q", st, payload)
			}
		default:
			if st != wire.StatusOK {
				t.Fatalf("write %d: %v", i, st)
			}
		}
	}
}

// TestPipelineBoundedAndLossless: a client that pipelines far past the
// window while reading late loses nothing, is refused nothing, and never
// makes the server hold more than a buffer's worth of responses.
func TestPipelineBoundedAndLossless(t *testing.T) {
	srv, store, addr := startServer(t, "xindex", Config{})
	if err := store.BulkPut(seq(1, 1000), nil); err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()
	const n = 100_000
	werr := make(chan error, 1)
	go func() {
		var buf []byte
		for i := uint64(1); i <= n; i++ {
			buf = wire.AppendRequest(buf, &wire.Request{ID: i, Op: wire.OpGet, Key: i%1000 + 1})
			if len(buf) >= 32<<10 || i == n {
				_ = nc.SetWriteDeadline(time.Now().Add(20 * time.Second))
				if _, err := nc.Write(buf); err != nil {
					werr <- err
					return
				}
				buf = buf[:0]
			}
		}
		werr <- nil
	}()
	time.Sleep(200 * time.Millisecond)
	_ = nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReaderSize(nc, 64<<10)
	seen := make([]bool, n+1)
	for got := 0; got < n; got++ {
		body, err := wire.ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("after %d responses: %v", got, err)
		}
		id := wire.PeekID(body)
		if id == 0 || id > n || seen[id] {
			t.Fatalf("stray or duplicate id %d", id)
		}
		seen[id] = true
		if st := wire.Status(body[8]); st != wire.StatusOK {
			t.Fatalf("id %d: %v", id, st)
		}
	}
	if err := <-werr; err != nil {
		t.Fatalf("writer: %v", err)
	}
	// The last response reaches the client before the server has settled
	// its accounting for it.
	for deadline := time.Now().Add(time.Second); srv.Metrics().InFlight != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	m := srv.Metrics()
	if m.Rejected != 0 || m.Accepted != n || m.InFlight != 0 {
		t.Fatalf("rejected %d, accepted %d, in flight %d; want 0, %d, 0", m.Rejected, m.Accepted, m.InFlight, n)
	}
	const oneFrame = 4 + 9 + 200
	if max := srv.met.outMax.Load(); max > flushBytes+oneFrame {
		t.Fatalf("response buffer reached %d bytes, bound is %d", max, flushBytes+oneFrame)
	}
}

// TestStalledClientIsDroppedAlone: a client that never reads costs its
// own connection one WriteTimeout and nobody else anything — the store's
// reclamation included: the stalled connection is parked in a socket
// write, where it must hold no epoch pin, or every page free waits on
// the slowest reader.
func TestStalledClientIsDroppedAlone(t *testing.T) {
	srv, store, addr := startServer(t, "xindex", Config{WriteTimeout: 200 * time.Millisecond})
	big := bytes.Repeat([]byte{1}, 32<<10)
	if err := store.Put(1, big); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(2, []byte("small")); err != nil {
		t.Fatal(err)
	}
	good, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = good.Close() }()
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stalled.Close() }()
	_ = stalled.(*net.TCPConn).SetReadBuffer(4 << 10)
	// 2000 Gets of a 32 KiB value: 64 MiB of responses nobody reads.
	keys := make([]uint64, 2000)
	for i := range keys {
		keys[i] = 1
	}
	if _, err := stalled.Write(getFrames(nil, 1, keys...)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Metrics().ConnsOpen < 2; {
		if time.Now().After(deadline) {
			t.Fatal("connections not accepted")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	var lat []time.Duration
	ctx := context.Background()
	advanced := 0 // rounds in which two epoch advances succeeded
	for srv.Metrics().ConnsOpen > 1 {
		if time.Since(start) > 2*time.Second {
			t.Fatalf("stalled connection still open after %v", time.Since(start))
		}
		t0 := time.Now()
		if v, ok, err := good.Get(ctx, 2); err != nil || !ok || string(v) != "small" {
			t.Fatalf("neighbour get: %q %v %v", v, ok, err)
		}
		lat = append(lat, time.Since(t0))
		if epoch.Advance() && epoch.Advance() {
			advanced++
		}
	}
	if advanced*2 < len(lat) {
		t.Fatalf("epoch advanced in %d of %d rounds while a client stalled: a pin is held across its socket write", advanced, len(lat))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if p99 := lat[len(lat)*99/100]; p99 >= 200*time.Millisecond {
		t.Fatalf("neighbour p99 %v while a client stalled (%d gets)", p99, len(lat))
	}
	if _, ok, err := good.Get(ctx, 2); err != nil || !ok {
		t.Fatalf("neighbour get after the drop: %v %v", ok, err)
	}
}

// TestBadFrameAfterValidFrames: the frames before a malformed one are
// answered first, then the malformed one, then the connection drops.
func TestBadFrameAfterValidFrames(t *testing.T) {
	srv, store, addr := startServer(t, "xindex", Config{})
	if err := store.BulkPut(seq(1, 8), nil); err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()
	stream := getFrames(nil, 1, seq(1, 8)...)
	// A well-framed body with an unknown op code.
	stream = binary.BigEndian.AppendUint32(stream, 9)
	stream = binary.BigEndian.AppendUint64(stream, 99)
	stream = append(stream, 0xEE)
	if _, err := nc.Write(stream); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(nc)
	for i := uint64(1); i <= 8; i++ {
		body, err := wire.ReadFrame(br, nil)
		if err != nil || wire.PeekID(body) != i || wire.Status(body[8]) != wire.StatusOK {
			t.Fatalf("answer %d before the bad frame: %v", i, err)
		}
	}
	body, err := wire.ReadFrame(br, nil)
	if err != nil || wire.PeekID(body) != 99 || wire.Status(body[8]) != wire.StatusBadRequest {
		t.Fatalf("bad frame's own answer: %v %x", err, body)
	}
	if _, err := wire.ReadFrame(br, nil); err != io.EOF {
		t.Fatalf("connection not dropped after the bad frame: %v", err)
	}
	if bad := srv.Metrics().BadFrames; bad != 1 {
		t.Fatalf("bad_frames = %d, want 1", bad)
	}
}

// TestBadFramesCountsProtocolErrorsOnly: a reset is a transport event;
// a cut frame and an out-of-bounds prefix are protocol errors.
func TestBadFramesCountsProtocolErrorsOnly(t *testing.T) {
	srv, store, addr := startServer(t, "xindex", Config{})
	if err := store.BulkPut(seq(1, 8), nil); err != nil {
		t.Fatal(err)
	}
	// waitClosed waits until the server has accepted and finished its
	// total-th connection.
	waitClosed := func(t *testing.T, total int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if m := srv.Metrics(); m.ConnsTotal == total && m.ConnsOpen == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("connection %d still open", total)
			}
		}
	}
	dial := func(t *testing.T) *net.TCPConn {
		t.Helper()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		return nc.(*net.TCPConn)
	}

	// Reset: close with the answers unread (and linger 0, so the close
	// is an RST whatever the kernel's mood).
	nc := dial(t)
	if _, err := nc.Write(getFrames(nil, 1, seq(1, 8)...)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Metrics().BytesOut == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no answer written")
		}
		time.Sleep(time.Millisecond)
	}
	_ = nc.SetLinger(0)
	_ = nc.Close()
	waitClosed(t, 1)
	if bad := srv.Metrics().BadFrames; bad != 0 {
		t.Fatalf("a reset connection counted %d bad frames", bad)
	}

	// A frame cut inside its body.
	nc = dial(t)
	frame := getFrames(nil, 1, 1)
	if _, err := nc.Write(frame[:len(frame)-5]); err != nil {
		t.Fatal(err)
	}
	_ = nc.CloseWrite()
	waitClosed(t, 2)
	_ = nc.Close()
	if bad := srv.Metrics().BadFrames; bad != 1 {
		t.Fatalf("after a truncated frame bad_frames = %d, want 1", bad)
	}

	// A prefix past wire.MaxFrame.
	nc = dial(t)
	if _, err := nc.Write([]byte{0xFF, 0xFF, 0xFF, 0x00}); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, 3)
	_ = nc.Close()
	if bad := srv.Metrics().BadFrames; bad != 2 {
		t.Fatalf("after an oversize prefix bad_frames = %d, want 2", bad)
	}
}

// TestMultiGetBurstAllocs pipelines bursts of MultiGet frames over one
// socket: the server allocates nothing per frame beyond what the store's
// own MultiGet does, because every frame's keys decode into the
// connection's kept key buffer.
func TestMultiGetBurstAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	_, store, addr := startServer(t, "alex", Config{})
	if err := store.BulkPut(seq(1, 10_000), nil); err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()

	const burst, width = 16, 16
	var frames []byte
	for i := 0; i < burst; i++ {
		keys := seq(uint64(1+i*width*37), width)
		frames = wire.AppendRequest(frames, &wire.Request{ID: uint64(i + 1), Op: wire.OpMultiGet, Keys: keys})
	}
	br := bufio.NewReaderSize(nc, 64<<10)
	round := func() {
		if _, err := nc.Write(frames); err != nil {
			t.Fatal(err)
		}
		for got := 0; got < burst; got++ {
			body, err := wire.ReadFrame(br, nil)
			if err != nil {
				t.Fatal(err)
			}
			if wire.Status(body[8]) != wire.StatusOK {
				t.Fatalf("response %d: status %v", got, wire.Status(body[8]))
			}
		}
	}
	round() // the connection's buffers reach their working size
	server := testing.AllocsPerRun(50, round) / burst
	keys := seq(1, width)
	own := testing.AllocsPerRun(50*burst, func() { store.MultiGet(keys) })
	if server > own+0.5 {
		t.Fatalf("a pipelined MultiGet frame costs %.2f allocs, the store's MultiGet alone %.2f", server, own)
	}
}

// BenchmarkServerBurst16 sends bursts of 16 pipelined frames over one
// raw loopback socket, each burst in one write and read back before the
// next. Row mixed is the wire-mixed shape: 14 Gets, a Put and a Range
// per burst over a latency-free store. Row range is wire-mixed's Range
// pass: 16 Range frames of 50 entries over a pmem.Optane() store, one
// Store.Ranges run whose scans overlap their reads at their boundaries.
// writes/burst is the server's socket writes per burst (1 when a burst
// is answered at once); allocs/op counts both sides of the socket, and
// this side allocates nothing.
func BenchmarkServerBurst16(b *testing.B) {
	const burst = 16
	val := bytes.Repeat([]byte("v"), 200)
	for _, row := range []struct {
		name  string
		frame func(i uint64) wire.Request
	}{
		{"mixed", func(i uint64) wire.Request {
			req := wire.Request{Op: wire.OpGet, Key: i*6151%100_000 + 1}
			switch i {
			case 5:
				req.Op, req.Value = wire.OpPut, val
			case 11:
				req.Op, req.Limit = wire.OpRange, 50
			}
			return req
		}},
		{"range", func(i uint64) wire.Request {
			return wire.Request{Op: wire.OpRange, Key: i*6151%99_000 + 1, Limit: 50}
		}},
	} {
		b.Run(row.name, func(b *testing.B) {
			srv, store, addr := startServer(b, "alex", Config{})
			if row.name == "range" {
				store.Region().SetLatency(pmem.Optane())
			}
			if err := store.BulkPut(seq(1, 100_000), nil); err != nil {
				b.Fatal(err)
			}
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = nc.Close() }()
			var frames []byte
			for i := uint64(0); i < burst; i++ {
				req := row.frame(i)
				req.ID = i + 1
				frames = wire.AppendRequest(frames, &req)
			}
			br := bufio.NewReaderSize(nc, 64<<10)
			w0 := srv.met.writes.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
				if _, err := nc.Write(frames); err != nil {
					b.Fatal(err)
				}
				for got := 0; got < burst; got++ {
					if _, err := wire.ReadFrame(br, nil); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(srv.met.writes.Load()-w0)/float64(b.N), "writes/burst")
		})
	}
}
