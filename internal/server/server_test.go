package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"learnedpieces/internal/client"
	"learnedpieces/internal/core"
	"learnedpieces/internal/index"
	"learnedpieces/internal/learned/alex"
	"learnedpieces/internal/learned/pgm"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/telemetry"
	"learnedpieces/internal/viper"
	"learnedpieces/internal/wire"
)

// startServer boots a server over a fresh store on a loopback listener
// and returns it with its address. The cleanup shuts the server down
// and closes the store.
func startServer(t testing.TB, index string, cfg Config) (*Server, *viper.Store, string) {
	t.Helper()
	b, ok := core.Lookup(index)
	if !ok {
		t.Fatalf("unknown index %q", index)
	}
	return serve(t, b.New(), cfg)
}

// serve is startServer over an index the caller built, with extra store
// options.
func serve(t testing.TB, idx index.Index, cfg Config, opts ...viper.Option) (*Server, *viper.Store, string) {
	t.Helper()
	region := pmem.NewRegion(64<<20, pmem.None())
	store := viper.Open(region, idx, append(opts, viper.WithTelemetry(cfg.Sink))...)
	cfg.Store = store
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		_ = store.Close()
	})
	return srv, store, ln.Addr().String()
}

// TestListenAndServe binds Config.Addr itself (an ephemeral loopback
// port), answers one Put and Get, and returns net.ErrClosed once
// Shutdown has drained it.
func TestListenAndServe(t *testing.T) {
	store := viper.Open(pmem.NewRegion(8<<20, pmem.None()), alex.New(alex.DefaultConfig()))
	defer func() { _ = store.Close() }()
	srv, err := New(Config{Addr: "127.0.0.1:0", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServe() }()
	for srv.Addr() == nil {
		select {
		case err := <-served:
			t.Fatalf("ListenAndServe: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.Put(ctx, 7, []byte("v")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if v, ok, err := c.Get(ctx, 7); err != nil || !ok || string(v) != "v" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	_ = c.Close()
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("ListenAndServe returned %v, want net.ErrClosed", err)
	}
}

func TestServerBasicOps(t *testing.T) {
	_, _, addr := startServer(t, "xindex", Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	ctx := context.Background()

	if err := c.Put(ctx, 42, []byte("hello")); err != nil {
		t.Fatalf("put: %v", err)
	}
	v, ok, err := c.Get(ctx, 42)
	if err != nil || !ok || !bytes.Equal(v, []byte("hello")) {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	if _, ok, _ := c.Get(ctx, 43); ok {
		t.Fatal("get of absent key reported a hit")
	}
	for k := uint64(100); k < 110; k++ {
		if err := c.Put(ctx, k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	vals, err := c.MultiGet(ctx, []uint64{100, 999, 105})
	if err != nil {
		t.Fatalf("multiget: %v", err)
	}
	if len(vals) != 3 || vals[0] == nil || vals[1] != nil || vals[2] == nil {
		t.Fatalf("multiget values: %v", vals)
	}
	entries, err := c.Range(ctx, 100, 5)
	if err != nil {
		t.Fatalf("range: %v", err)
	}
	if len(entries) != 5 || entries[0].Key != 100 {
		t.Fatalf("range entries: %+v", entries)
	}
	existed, err := c.Delete(ctx, 42)
	if err != nil || !existed {
		t.Fatalf("delete: %v %v", existed, err)
	}
	if _, ok, _ := c.Get(ctx, 42); ok {
		t.Fatal("deleted key still readable")
	}
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if c.Strays() != 0 {
		t.Fatalf("stray responses: %d", c.Strays())
	}
}

func TestServerStatsOp(t *testing.T) {
	sink := telemetry.New()
	_, _, addr := startServer(t, "xindex", Config{Sink: sink})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	ctx := context.Background()
	if err := c.Put(ctx, 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	raw, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var sn telemetry.Snapshot
	if err := json.Unmarshal(raw, &sn); err != nil {
		t.Fatalf("stats payload does not parse: %v\n%s", err, raw)
	}
	if sn.Store.Put.Ops == 0 {
		t.Fatal("stats snapshot shows no puts")
	}
	if sn.Server.ConnsTotal == 0 || sn.Server.Accepted == 0 {
		t.Fatalf("stats snapshot missing server section: %+v", sn.Server)
	}
}

// putsBeside runs two connections of Puts beside a third that sends op
// every `every` requests and Gets otherwise. On a single-writer index op
// must take the server's lock tier, or the race detector reports it
// against the Puts.
func putsBeside(t *testing.T, addr string, every int, op func(context.Context, *client.Conn) error) {
	t.Helper()
	ctx := context.Background()
	var conns [3]*client.Conn
	for i := range conns {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		conns[i] = c
	}
	var writers sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(c *client.Conn, base uint64) {
			defer writers.Done()
			for k := base; k < base+1500; k++ {
				if err := c.Put(ctx, k, []byte("v")); err != nil {
					t.Errorf("put %d: %v", k, err)
					return
				}
			}
		}(conns[w], uint64(w+1)<<32)
	}
	go func() { writers.Wait(); done.Store(true) }()
	for i := 1; !done.Load(); i++ {
		var err error
		if i%every == 0 {
			err = op(ctx, conns[2])
		} else {
			_, _, err = conns[2].Get(ctx, 1<<32+uint64(i))
		}
		if err != nil {
			t.Error(err)
			break
		}
	}
	writers.Wait()
}

// TestServerDrainTakesWriteTier: a Drain installs retrains into a
// single-writer index, so it is a write.
func TestServerDrainTakesWriteTier(t *testing.T) {
	_, _, addr := serve(t, pgm.New(pgm.Config{BaseSize: 8}), Config{}, viper.WithRetrainMode(viper.RetrainAsync))
	putsBeside(t, addr, 50, func(ctx context.Context, c *client.Conn) error { return c.Drain(ctx) })
}

// TestServerStatsTakesReadTier: a Stats probe reads the index's Len and
// Sizes, so it is a read.
func TestServerStatsTakesReadTier(t *testing.T) {
	_, _, addr := serve(t, alex.New(alex.DefaultConfig()), Config{Sink: telemetry.New()})
	putsBeside(t, addr, 30, func(ctx context.Context, c *client.Conn) error {
		_, err := c.Stats(ctx)
		return err
	})
}

// TestServerTelemetrySnapshotTakesReadTier: the observability endpoint
// snapshots the sink from its own goroutine, outside any wire request,
// and the snapshot's index probe reads Len and Sizes, so the probe itself
// must take the read tier.
func TestServerTelemetrySnapshotTakesReadTier(t *testing.T) {
	sink := telemetry.New()
	_, _, addr := serve(t, alex.New(alex.DefaultConfig()), Config{Sink: sink})
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sink.Snapshot()
			}
		}
	}()
	putsBeside(t, addr, 30, func(ctx context.Context, c *client.Conn) error {
		_, err := c.Stats(ctx)
		return err
	})
	close(stop)
	snaps.Wait()
}

func TestServerErrorMapping(t *testing.T) {
	// cceh cannot scan and rmi cannot write → unsupported status →
	// wire.ErrUnsupported.
	_, _, addr := startServer(t, "cceh", Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	ctx := context.Background()
	if err := c.Put(ctx, 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Range(ctx, 0, 10); !errors.Is(err, wire.ErrUnsupported) {
		t.Fatalf("range on hash index: got %v, want wire.ErrUnsupported", err)
	}
	_, _, addr = startServer(t, "rmi", Config{})
	ro, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ro.Close() }()
	if err := ro.Put(ctx, 1, []byte("v")); !errors.Is(err, wire.ErrUnsupported) {
		t.Fatalf("put on a read-only index: got %v, want wire.ErrUnsupported", err)
	}
}

func TestServerClosedStoreMapsToStatusClosed(t *testing.T) {
	srv, store, addr := startServer(t, "xindex", Config{})
	_ = srv
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	ctx := context.Background()
	if err := c.Put(ctx, 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, 2, []byte("v")); !errors.Is(err, wire.ErrClosed) {
		t.Fatalf("put on closed store: got %v, want wire.ErrClosed", err)
	}
}

func TestServerGracefulDrainNoLostResponses(t *testing.T) {
	srv, store, addr := startServer(t, "xindex", Config{})
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	if err := store.BulkPut(keys, nil); err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()
	// Write a pipelined burst, then immediately shut the server down.
	// Every admitted request must still be answered before the server
	// closes the connection.
	const n = 64
	var out []byte
	for i := uint64(1); i <= n; i++ {
		out = wire.AppendRequest(out, &wire.Request{ID: i, Op: wire.OpGet, Key: i})
	}
	if _, err := nc.Write(out); err != nil {
		t.Fatal(err)
	}
	// The contract covers received requests: a shutdown that wins the
	// race against the connection's goroutine legally cuts the whole
	// burst before it is read, so wait until the server has taken it in.
	for deadline := time.Now().Add(2 * time.Second); srv.Metrics().Accepted < n; {
		if time.Now().After(deadline) {
			t.Fatalf("server admitted %d of %d requests", srv.Metrics().Accepted, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	sdErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		sdErr <- srv.Shutdown(ctx)
	}()
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := newBufReader(nc)
	seen := make(map[uint64]bool)
	for {
		body, err := wire.ReadFrame(br, nil)
		if err != nil {
			break // EOF once the server finished writing and closed
		}
		id := wire.PeekID(body)
		if seen[id] {
			t.Fatalf("duplicate response for id %d", id)
		}
		seen[id] = true
	}
	if err := <-sdErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Zero lost: every request admitted before shutdown is answered.
	if len(seen) != n {
		t.Fatalf("lost responses: got %d of %d", len(seen), n)
	}
}

func TestServerBadFrameDropsConnection(t *testing.T) {
	_, _, addr := startServer(t, "xindex", Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()
	// A frame with a hostile length prefix must get the connection
	// dropped without a response (the stream is desynchronised).
	var pre [4]byte
	binary.BigEndian.PutUint32(pre[:], 0xFFFFFF00)
	if _, err := nc.Write(pre[:]); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	if n, err := nc.Read(buf); err == nil {
		t.Fatalf("expected connection drop, read %d bytes", n)
	}
}

func TestServerSerialisesNonConcurrentIndex(t *testing.T) {
	// lipp supports neither concurrent reads nor writes; the server
	// must serialise everything and still answer correctly under
	// concurrent clients (the race detector is the real assertion).
	_, _, addr := startServer(t, "lipp", Config{})
	pool, err := client.DialPool(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pool.Close() }()
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w * 1000)
			for i := uint64(1); i <= 200; i++ {
				if err := pool.Put(ctx, base+i, []byte("v")); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if _, ok, err := pool.Get(ctx, base+i); err != nil || !ok {
					t.Errorf("get %d: %v %v", base+i, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestServerScanLimitZeroRejected(t *testing.T) {
	_, store, addr := startServer(t, "xindex", Config{})
	if err := store.BulkPut([]uint64{1, 2, 3}, nil); err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()
	// Limit 0 means "unlimited" to Store.Range: one tiny frame asking
	// for the whole store. It must be answered StatusBadRequest instead.
	frame := wire.AppendRequest(nil, &wire.Request{ID: 9, Op: wire.OpRange, Key: 0, Limit: 0})
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := newBufReader(nc)
	body, err := wire.ReadFrame(br, nil)
	if err != nil {
		t.Fatalf("no response to zero-limit scan: %v", err)
	}
	if wire.PeekID(body) != 9 || wire.Status(body[8]) != wire.StatusBadRequest {
		t.Fatalf("got id %d status %v, want id 9 StatusBadRequest",
			wire.PeekID(body), wire.Status(body[8]))
	}
}

func TestServerFrameBudget(t *testing.T) {
	_, store, addr := startServer(t, "xindex", Config{})
	// 100 records of 200 KiB: any response carrying all of them would be
	// ~20 MiB, past wire.MaxFrame (16 MiB).
	val := bytes.Repeat([]byte{0xAB}, 200<<10)
	keys := make([]uint64, 100)
	for i := range keys {
		keys[i] = uint64(i + 1)
		if err := store.Put(keys[i], val); err != nil {
			t.Fatal(err)
		}
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	ctx := context.Background()

	t.Run("range-truncates", func(t *testing.T) {
		var first []wire.Entry
		err := c.RangeChunks(ctx, 1, len(keys), func(entries []wire.Entry, more bool) bool {
			if !more {
				t.Fatal("truncated chunk did not report more=true")
			}
			first = entries
			return false
		})
		if err != nil {
			t.Fatalf("range: %v", err)
		}
		// Fewer than asked — the server truncated at the frame budget —
		// but not empty, and the frame made it through ReadFrame intact.
		if len(first) == 0 || len(first) >= len(keys) {
			t.Fatalf("got %d entries, want 0 < n < %d (frame-budget truncation)",
				len(first), len(keys))
		}
		if !bytes.Equal(first[0].Value, val) {
			t.Fatal("range entry value corrupted")
		}
		// The continuation delivers the whole store across frames.
		all, err := c.Range(ctx, 1, len(keys))
		if err != nil {
			t.Fatalf("full-store range: %v", err)
		}
		if len(all) != len(keys) {
			t.Fatalf("full-store range delivered %d entries, want %d", len(all), len(keys))
		}
		for i, e := range all {
			if e.Key != keys[i] || !bytes.Equal(e.Value, val) {
				t.Fatalf("full-store range entry %d = key %d, want %d with the stored value", i, e.Key, keys[i])
			}
		}
	})

	t.Run("multiget-refused", func(t *testing.T) {
		// MultiGet cannot truncate (values correlate by index), so an
		// over-budget batch is refused outright...
		if _, err := c.MultiGet(ctx, keys); !errors.Is(err, wire.ErrBadRequest) {
			t.Fatalf("oversized multiget: got %v, want wire.ErrBadRequest", err)
		}
		// ...without poisoning the connection for later requests.
		v, ok, err := c.Get(ctx, 1)
		if err != nil || !ok || !bytes.Equal(v, val) {
			t.Fatalf("connection unusable after refused multiget: %v %v", ok, err)
		}
	})
}

// newBufReader builds the bufio.Reader ReadFrame wants from a net.Conn.
func newBufReader(nc net.Conn) *bufio.Reader { return bufio.NewReader(nc) }

// TestServerRangeCursorContinuation drives a range long enough to need
// several continuation frames (limit > wire.MaxRangeChunk) and checks
// the reassembled stream delivers every key exactly once, in order,
// with zero stray responses — the wire-level cursor invariant.
func TestServerRangeCursorContinuation(t *testing.T) {
	_, store, addr := startServer(t, "xindex", Config{})
	const n = 10_000 // needs ceil(10000/4096) = 3 chunks
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	if err := store.BulkPut(keys, nil); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	ctx := context.Background()

	chunks := 0
	var got []uint64
	err = c.RangeChunks(ctx, 1, n, func(entries []wire.Entry, more bool) bool {
		chunks++
		for _, e := range entries {
			got = append(got, e.Key)
		}
		if more && len(entries) == 0 {
			t.Fatal("empty chunk with more=true would spin forever")
		}
		return true
	})
	if err != nil {
		t.Fatalf("range: %v", err)
	}
	if chunks < 2 {
		t.Fatalf("range of %d entries used %d frames, want multi-frame continuation", n, chunks)
	}
	if len(got) != n {
		t.Fatalf("reassembled %d entries, want %d (lost or duplicated across frames)", len(got), n)
	}
	for i, k := range got {
		if k != keys[i] {
			t.Fatalf("entry %d = %d, want %d", i, k, keys[i])
		}
	}
	if c.Strays() != 0 {
		t.Fatalf("stray responses: %d", c.Strays())
	}

	// A deletion between frames must not resurrect or duplicate keys:
	// delete mid-range, then scan across the hole.
	for k := uint64(5000); k < 5100; k++ {
		if _, err := store.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	got = got[:0]
	if err := c.RangeChunks(ctx, 4000, 3000, func(entries []wire.Entry, _ bool) bool {
		for _, e := range entries {
			got = append(got, e.Key)
		}
		return true
	}); err != nil {
		t.Fatalf("range over hole: %v", err)
	}
	if len(got) != 3000 {
		t.Fatalf("got %d entries, want 3000 (limit counts delivered live entries)", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("out of order at %d: %d after %d", i, got[i], got[i-1])
		}
		if got[i] >= 5000 && got[i] < 5100 {
			t.Fatalf("deleted key %d delivered", got[i])
		}
	}
}
