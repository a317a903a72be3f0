// Package server is the network front end over a viper.Store: a TCP
// service speaking the wire package's pipelined binary protocol.
//
// Architecture, per connection:
//
//   - A reader goroutine decodes frames and admits requests against a
//     bounded in-flight window. A full window answers with
//     StatusBackpressure instead of queueing — the server's memory is
//     bounded by design, not by hoping clients behave.
//   - Admitted point Gets are handed to the shared coalescer; every
//     other op executes on the reader goroutine (writes serialised with
//     a mutex when the index lacks concurrent-write support).
//   - A writer goroutine drains a bounded response queue into a
//     buffered socket writer, flushing when the queue goes idle — so a
//     pipelined burst is written back in large socket writes. Writes
//     run under a deadline: a client that stops reading turns into a
//     write error, and the connection is dropped rather than letting a
//     dead socket wedge the writer with window slots held.
//
// The coalescer is one goroutine for the whole server. It collects
// concurrent point reads — across connections — into a batch, waiting
// at most CoalesceWait after the first get and flushing early when the
// batch reaches CoalesceBatch, then resolves the batch with one
// Store.MultiGet. That turns N scattered index probes + N scattered
// PMem reads into one offset-ordered batch, which is exactly the
// amortisation MultiGet exists for; the batch-size histogram in
// telemetry shows whether it is actually happening. The coalescer
// never blocks on any one connection: a connection whose response
// queue is full (a stalled client) is dropped, so one misbehaving
// client cannot halt the shared read path.
//
// Graceful drain never drops an admitted request: Shutdown stops the
// accept loop, half-closes every connection's read side (in-flight
// frames already received still execute), waits for each connection's
// admitted requests to be answered and written, then stops the
// coalescer and drains the store's retrain pipeline.
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"learnedpieces/internal/epoch"
	"learnedpieces/internal/stats"
	"learnedpieces/internal/telemetry"
	"learnedpieces/internal/viper"
	"learnedpieces/internal/wire"
)

// Defaults.
const (
	// DefaultMaxInFlight is the per-connection admission window.
	DefaultMaxInFlight = 128
	// DefaultCoalesceWait is how long the coalescer holds a batch open
	// after its first get. Two hundred microseconds is invisible next
	// to a network round trip but long enough for concurrent clients'
	// reads to pile into one batch.
	DefaultCoalesceWait = 200 * time.Microsecond
	// DefaultCoalesceBatch flushes a batch early at this size; it also
	// bounds the MultiGet fan-in (and stays under wire.MaxKeys).
	DefaultCoalesceBatch = 256
	// DefaultWriteTimeout bounds one socket write. A client that stops
	// reading responses stalls its connection's writer against a full
	// TCP buffer; the deadline turns that stall into a write error that
	// tears the connection down instead of holding its queue (and its
	// admitted window slots) forever.
	DefaultWriteTimeout = 30 * time.Second
	// outSlack is response-queue headroom beyond the admission window,
	// reserved for backpressure replies (which bypass the window).
	outSlack = 64
)

// Config parameterises a Server. Store is required; everything else
// has a default.
type Config struct {
	// Addr is the listen address for ListenAndServe ("host:port").
	Addr string
	// Store is the backing key-value store. The server never closes it;
	// lifecycle stays with the caller.
	Store *viper.Store
	// MaxInFlight bounds admitted-but-unanswered requests per
	// connection; 0 means DefaultMaxInFlight.
	MaxInFlight int
	// CoalesceWait bounds how long a point read waits for batch mates;
	// 0 means DefaultCoalesceWait.
	CoalesceWait time.Duration
	// CoalesceBatch flushes a batch at this size; 0 means
	// DefaultCoalesceBatch, and any value <= 1 disables coalescing
	// (every get becomes its own store call).
	CoalesceBatch int
	// WriteTimeout bounds one socket write (Write or Flush) to a
	// connection; a write that exceeds it fails and the connection is
	// dropped. 0 means DefaultWriteTimeout; negative disables deadlines
	// (tests with deadline-free shims).
	WriteTimeout time.Duration
	// Sink receives the server's counters via SetServerProbe; nil
	// leaves server telemetry disabled.
	Sink *telemetry.Sink
}

// metrics is the server's counter block; read by the telemetry probe.
type metrics struct {
	connsOpen telemetry.Gauge
	inFlight  telemetry.Gauge

	connsTotal telemetry.Counter
	accepted   telemetry.Counter
	rejected   telemetry.Counter
	badFrames  telemetry.Counter
	bytesIn    telemetry.Counter
	bytesOut   telemetry.Counter

	coalesceBatches telemetry.Counter
	coalescedGets   telemetry.Counter
	flushFull       telemetry.Counter
	flushTimer      telemetry.Counter
	stalledConns    telemetry.Counter
	drains          telemetry.Counter

	batch *stats.Histogram
}

func (m *metrics) snapshot() telemetry.ServerSnapshot {
	return telemetry.ServerSnapshot{
		ConnsOpen:       m.connsOpen.Load(),
		ConnsTotal:      m.connsTotal.Load(),
		InFlight:        m.inFlight.Load(),
		Accepted:        m.accepted.Load(),
		Rejected:        m.rejected.Load(),
		BadFrames:       m.badFrames.Load(),
		BytesIn:         m.bytesIn.Load(),
		BytesOut:        m.bytesOut.Load(),
		CoalesceBatches: m.coalesceBatches.Load(),
		CoalescedGets:   m.coalescedGets.Load(),
		BatchP50:        m.batch.Percentile(50),
		BatchP99:        m.batch.Percentile(99),
		BatchMax:        m.batch.Max(),
		FlushFull:       m.flushFull.Load(),
		FlushTimer:      m.flushTimer.Load(),
		StalledConns:    m.stalledConns.Load(),
		Drains:          m.drains.Load(),
	}
}

// Server serves the wire protocol over TCP.
type Server struct {
	cfg   Config
	store *viper.Store
	met   *metrics

	// opMu serialises store calls the index cannot take concurrently.
	// Three tiers by capability: ConcurrentWrites — no locking at all;
	// ConcurrentReads only — writes take the write lock, reads share
	// the read lock; neither — every op takes the write lock. The
	// coalescer takes its read lock once per batch, which turns the
	// lock itself into something coalescing amortises.
	opMu           sync.RWMutex
	lockWrites     bool
	lockReads      bool
	readsExclusive bool
	statsSource    func() []byte

	// coalesceOn is the runtime gate in front of the read coalescer:
	// the adapt controller (or an OpCoalesce admin request) flips it
	// while traffic runs. Off routes point gets straight through
	// execute on the reader goroutine; the coalescer goroutine keeps
	// running either way so a flip is a single atomic store with no
	// lifecycle work. It only matters when cfg.CoalesceBatch > 1 —
	// with batching configured off there is nothing to gate.
	coalesceOn atomic.Bool

	lnMu     sync.Mutex
	ln       net.Listener
	getc     chan getReq
	stopc    chan struct{} // closed to stop the coalescer
	closed   atomic.Bool
	connMu   sync.Mutex
	conns    map[*conn]struct{}
	connWG   sync.WaitGroup // live connection writer goroutines
	coalesce sync.WaitGroup // the coalescer goroutine
}

// getReq is one admitted point read travelling to the coalescer.
type getReq struct {
	c   *conn
	id  uint64
	key uint64
}

// connBatch accumulates one connection's encoded responses for one
// coalesced batch.
type connBatch struct {
	buf []byte
	n   int
}

// outMsg is one or more encoded responses travelling to a connection's
// writer. admitted counts how many window-holding responses the buffer
// carries (the writer releases that many in-flight slots); rejections
// and error replies ride with admitted == 0.
type outMsg struct {
	buf      []byte
	admitted int
}

// conn is one accepted connection's state.
type conn struct {
	s        *Server
	raw      net.Conn
	nc       *net.TCPConn // raw when it is TCP; enables read-side half-close
	out      chan outMsg
	inFlight atomic.Int64
	// reqWG tracks requests handed to the coalescer; the reader waits
	// for it before closing out, so the coalescer never sends on a
	// closed channel.
	reqWG sync.WaitGroup
}

// New builds a server over cfg, applying defaults. It does not listen
// yet; call ListenAndServe or Serve.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: Config.Store is required")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.CoalesceWait <= 0 {
		cfg.CoalesceWait = DefaultCoalesceWait
	}
	if cfg.CoalesceBatch == 0 {
		cfg.CoalesceBatch = DefaultCoalesceBatch
	}
	if cfg.CoalesceBatch > wire.MaxKeys {
		cfg.CoalesceBatch = wire.MaxKeys
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	caps := cfg.Store.Caps()
	s := &Server{
		cfg:            cfg,
		store:          cfg.Store,
		met:            &metrics{batch: stats.NewHistogram()},
		lockWrites:     !caps.ConcurrentWrites,
		lockReads:      !caps.ConcurrentWrites, // a write may be in flight
		readsExclusive: !caps.ConcurrentReads,
		getc:           make(chan getReq, 4*wire.MaxKeys),
		stopc:          make(chan struct{}),
		conns:          make(map[*conn]struct{}),
	}
	s.statsSource = s.statsJSON
	s.coalesceOn.Store(cfg.CoalesceBatch > 1)
	if cfg.Sink != nil {
		cfg.Sink.SetServerProbe(s.Metrics)
	}
	return s, nil
}

// Metrics digests the server's own counters (also reachable through a
// sink's server probe; this accessor serves embedders without one).
func (s *Server) Metrics() telemetry.ServerSnapshot {
	sn := s.met.snapshot()
	sn.CoalesceOn = s.CoalesceEnabled()
	return sn
}

// SetCoalesce flips the read coalescer's runtime gate. Safe under live
// traffic from any goroutine: requests already handed to the coalescer
// finish there, new point gets route per the new setting. A server
// configured with CoalesceBatch <= 1 has no coalescer to enable, so the
// call reports false and changes nothing.
func (s *Server) SetCoalesce(on bool) bool {
	if s.cfg.CoalesceBatch <= 1 {
		return false
	}
	s.coalesceOn.Store(on)
	return true
}

// CoalesceEnabled reports whether point gets currently route through
// the shared coalescer.
func (s *Server) CoalesceEnabled() bool {
	return s.cfg.CoalesceBatch > 1 && s.coalesceOn.Load()
}

// Addr returns the bound listen address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.lnMu.Lock()
	ln := s.ln
	s.lnMu.Unlock()
	if ln == nil {
		return nil
	}
	return ln.Addr()
}

// ListenAndServe binds cfg.Addr and serves until Shutdown.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown closes it. It always
// returns a non-nil error; after Shutdown the error is net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	closed := s.closed.Load()
	s.lnMu.Unlock()
	if closed {
		_ = ln.Close()
		return net.ErrClosed
	}
	s.coalesce.Add(1)
	go s.runCoalescer()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return err
		}
		// Non-TCP listeners (tests use in-memory shims) still work; they
		// just lose the half-close drain nicety.
		tc, _ := nc.(*net.TCPConn)
		c := &conn{
			s:   s,
			raw: nc,
			nc:  tc,
			out: make(chan outMsg, s.cfg.MaxInFlight+outSlack),
		}
		s.connMu.Lock()
		if s.closed.Load() {
			s.connMu.Unlock()
			_ = nc.Close()
			return net.ErrClosed
		}
		s.conns[c] = struct{}{}
		s.connMu.Unlock()
		s.met.connsTotal.Inc()
		s.met.connsOpen.Add(1)
		s.connWG.Add(1)
		go c.writeLoop(nc)
		go c.readLoop(nc)
	}
}

// Shutdown gracefully drains the server: stop accepting, half-close
// every connection's read side, answer everything already admitted,
// then stop the coalescer and drain the store's retrain pipeline. The
// context bounds the wait; on expiry remaining connections are
// force-closed and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.closed.Swap(true) {
		return nil
	}
	s.lnMu.Lock()
	ln := s.ln
	s.lnMu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	s.connMu.Lock()
	for c := range s.conns {
		if c.nc != nil {
			_ = c.nc.CloseRead()
		} else {
			// No half-close available: a full close still unblocks the
			// reader, at the cost of any unwritten responses on shims.
			_ = c.raw.Close()
		}
	}
	s.connMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.connMu.Lock()
		for c := range s.conns {
			_ = c.raw.Close()
		}
		s.connMu.Unlock()
		<-done
	}

	// All connections are gone, so no gets can be in the coalescer's
	// queue (each held its connection open via reqWG until answered).
	close(s.stopc)
	s.coalesce.Wait()

	s.met.drains.Inc()
	s.store.DrainRetrains()
	if s.cfg.Sink != nil {
		// Retire the probe: folds this server's totals into the sink so
		// post-shutdown snapshots keep them.
		s.cfg.Sink.SetServerProbe(nil)
	}
	return err
}

// readLoop is the per-connection reader: frame → decode → admit →
// dispatch. It owns connection teardown: on exit it waits for
// coalesced requests, closes out (stopping the writer) and releases
// the server's connection bookkeeping.
func (c *conn) readLoop(nc net.Conn) {
	s := c.s
	defer func() {
		c.reqWG.Wait()
		close(c.out)
		s.connMu.Lock()
		delete(s.conns, c)
		s.connMu.Unlock()
		s.met.connsOpen.Add(-1)
	}()
	br := bufio.NewReaderSize(nc, 64<<10)
	var buf []byte
	for {
		body, err := wire.ReadFrame(br, buf)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.met.badFrames.Inc()
			}
			return
		}
		buf = body[:0] // reuse the (possibly grown) buffer next frame
		s.met.bytesIn.Add(int64(len(body)) + 4)
		req, err := wire.DecodeRequest(body)
		if err != nil {
			s.met.badFrames.Inc()
			// The stream may be desynchronised after a malformed frame;
			// answer if the ID was readable, then drop the connection.
			if len(body) >= 8 {
				id := binary.BigEndian.Uint64(body[:8])
				c.send(&wire.Response{ID: id, Status: wire.StatusBadRequest}, false)
			}
			return
		}
		// Admission: backpressure rejections bypass the window, so a
		// client that overruns it keeps getting told, not blocked.
		if c.inFlight.Load() >= int64(s.cfg.MaxInFlight) {
			s.met.rejected.Inc()
			c.send(&wire.Response{ID: req.ID, Status: wire.StatusBackpressure}, false)
			continue
		}
		c.inFlight.Add(1)
		s.met.inFlight.Add(1)
		s.met.accepted.Inc()
		if req.Op == wire.OpGet && s.cfg.CoalesceBatch > 1 && s.coalesceOn.Load() {
			c.reqWG.Add(1)
			s.getc <- getReq{c: c, id: req.ID, key: req.Key}
			continue
		}
		c.sendBuf(s.executeFrame(&req), 1)
	}
}

// writeLoop drains the response queue into a buffered socket writer,
// flushing whenever the queue goes idle. In-flight accounting is
// released here — after the response is on its way out — so the window
// measures genuinely unanswered requests.
//
// Every socket write runs under cfg.WriteTimeout: a client that stops
// reading responses would otherwise park this goroutine on a full TCP
// buffer forever, with its admitted window slots held and its queue
// filling behind it. On the first write failure the connection is
// closed (unblocking the reader) and the loop keeps draining the queue
// without writing, so accounting still settles and the reader's
// teardown is never wedged behind a dead socket.
func (c *conn) writeLoop(nc net.Conn) {
	s := c.s
	defer s.connWG.Done()
	defer func() { _ = nc.Close() }()
	bw := bufio.NewWriterSize(nc, 64<<10)
	dead := false
	write := func(p []byte) {
		if dead {
			return
		}
		if s.cfg.WriteTimeout > 0 {
			_ = nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		}
		if _, err := bw.Write(p); err != nil {
			dead = true
			_ = nc.Close()
			return
		}
		s.met.bytesOut.Add(int64(len(p)))
	}
	flush := func() {
		if dead {
			return
		}
		if s.cfg.WriteTimeout > 0 {
			_ = nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		}
		if err := bw.Flush(); err != nil {
			dead = true
			_ = nc.Close()
		}
	}
	for msg := range c.out {
		for {
			write(msg.buf)
			if msg.admitted > 0 {
				c.inFlight.Add(-int64(msg.admitted))
				s.met.inFlight.Add(-int64(msg.admitted))
			}
			// Opportunistically drain without flushing between messages.
			select {
			case m, ok := <-c.out:
				if !ok {
					flush()
					return
				}
				msg = m
				continue
			default:
			}
			break
		}
		flush()
	}
}

// send encodes r and queues it for the writer. Blocking here is
// deliberate: the queue is sized so admitted responses always fit, and
// a reader blocked on its own rejection replies just stops reading —
// which is backpressure doing its job. Only the connection's own
// reader may block here; the shared coalescer uses trySend.
func (c *conn) send(r *wire.Response, admitted bool) {
	n := 0
	if admitted {
		n = 1
	}
	c.sendBuf(wire.AppendResponse(nil, r), n)
}

// sendBuf queues an already-encoded buffer carrying admitted
// window-holding responses.
func (c *conn) sendBuf(buf []byte, admitted int) {
	c.out <- outMsg{buf: buf, admitted: admitted}
}

// Response frame budget bookkeeping, in body bytes: a response body is
// id (8) + status (1) plus its payload, and must stay under
// wire.MaxFrame or the client's ReadFrame rejects it and the
// connection is poisoned for every request in flight on it.
const (
	respHeaderBytes  = 8 + 1
	scanEntryBytes   = 8 + 4 // per-entry key + value-length prefix
	mgValueBytes     = 4     // per-value length prefix
	rangeHeaderBytes = 1 + 8 // Range continuation header: more flag + resume key
)

// executeFrame runs one non-coalesced request and returns its encoded
// response frame. Read results (Get/MultiGet/Range values) alias the
// PMem region, so for read ops the store call and the encode both
// happen under one epoch pin: a concurrent Compact's page frees are
// deferred past the encode, upholding viper's rule that region aliases
// must not be retained unpinned.
func (s *Server) executeFrame(req *wire.Request) []byte {
	if reads(req.Op) {
		g := epoch.Enter(req.Key)
		defer g.Exit()
	}
	return wire.AppendResponse(nil, s.execute(req))
}

// execute runs one non-coalesced request against the store and builds
// its response. Runs on the reader goroutine (or under opMu when the
// index needs serialisation). Callers encoding read responses must
// hold an epoch pin across the call and the encode (see executeFrame).
func (s *Server) execute(req *wire.Request) *wire.Response {
	resp := &wire.Response{ID: req.ID}
	switch {
	case writes(req.Op):
		if s.lockWrites {
			s.opMu.Lock()
			defer s.opMu.Unlock()
		}
	case reads(req.Op):
		if s.readsExclusive {
			s.opMu.Lock()
			defer s.opMu.Unlock()
		} else if s.lockReads {
			s.opMu.RLock()
			defer s.opMu.RUnlock()
		}
	}
	switch req.Op {
	case wire.OpPut:
		resp.Status = statusOf(s.store.Put(req.Key, req.Value))
	case wire.OpGet:
		// Only reached with coalescing disabled (or lockReads).
		if v, ok := s.store.Get(req.Key); ok {
			resp.Value = v
		} else {
			resp.Status = wire.StatusNotFound
		}
	case wire.OpDelete:
		existed, err := s.store.Delete(req.Key)
		resp.Status = statusOf(err)
		resp.Existed = existed
	case wire.OpMultiGet:
		vals := s.store.MultiGet(req.Keys)
		// A batch of large values can exceed what one legal frame
		// carries; truncating is not an option (the client correlates
		// values by index), so refuse the whole response rather than
		// emit a frame the client must reject.
		body := respHeaderBytes + 4
		for _, v := range vals {
			body += mgValueBytes + len(v)
		}
		if body > wire.MaxFrame {
			resp.Status = wire.StatusBadRequest
			break
		}
		resp.Values = vals
	case wire.OpRange:
		// Cursor-continuation scan: one bounded chunk per frame plus a
		// resume header. The server is stateless across frames — the
		// client carries the cursor as (ResumeKey, remaining limit) — so
		// a continuation costs nothing to hold open and survives the
		// store retraining or compacting between frames.
		// DecodeRequest already rejects these limits; kept for direct
		// callers so execute never passes n=0 (unlimited) to Store.Range.
		if req.Limit == 0 || req.Limit > wire.MaxScanLimit {
			resp.Status = wire.StatusBadRequest
			break
		}
		chunk := int(req.Limit)
		if chunk > wire.MaxRangeChunk {
			chunk = wire.MaxRangeChunk
		}
		entries := make([]wire.Entry, 0, chunk)
		truncated := false
		// A chunk carries *up to* Limit entries, so the frame budget is
		// enforced by truncation: stop before the entry that would push
		// the response body past wire.MaxFrame.
		body := respHeaderBytes + rangeHeaderBytes + 4
		err := s.store.Range(req.Key, chunk, func(k uint64, v []byte) bool {
			if body+scanEntryBytes+len(v) > wire.MaxFrame {
				truncated = true
				return false
			}
			body += scanEntryBytes + len(v)
			entries = append(entries, wire.Entry{Key: k, Value: v})
			return true
		})
		if resp.Status = statusOf(err); resp.Status != wire.StatusOK {
			break
		}
		resp.Cursor = true
		resp.Entries = entries
		resp.ResumeKey = req.Key
		if n := len(entries); n > 0 {
			last := entries[n-1].Key
			// A full chunk (or a frame-budget stop) means the range may
			// continue past the last delivered key — unless that key is
			// the top of the key space, where there is nowhere to resume.
			if (n == chunk || truncated) && last != ^uint64(0) {
				resp.More = true
				resp.ResumeKey = last + 1
			}
		}
	case wire.OpStats:
		resp.Value = s.statsSource()
	case wire.OpDrain:
		s.store.DrainRetrains()
		s.met.drains.Inc()
	case wire.OpCoalesce:
		// Admin toggle for the read coalescer; Key 0 = off, nonzero =
		// on. Refused (not silently ignored) when there is no coalescer
		// configured to gate.
		if !s.SetCoalesce(req.Key != 0) {
			resp.Status = wire.StatusUnsupported
		}
	default:
		resp.Status = wire.StatusBadRequest
	}
	return resp
}

// writes reports whether op mutates the store.
func writes(op wire.Op) bool {
	return op == wire.OpPut || op == wire.OpDelete
}

// reads reports whether op probes the index (and so must exclude
// writers on indexes without concurrent-write support).
func reads(op wire.Op) bool {
	return op == wire.OpGet || op == wire.OpMultiGet ||
		op == wire.OpRange
}

// statusOf maps the store's typed error sentinels to wire statuses —
// errors.Is on the taxonomy, never message matching.
func statusOf(err error) wire.Status {
	switch {
	case err == nil:
		return wire.StatusOK
	case errors.Is(err, viper.ErrClosed):
		return wire.StatusClosed
	case errors.Is(err, viper.ErrFull):
		return wire.StatusFull
	case errors.Is(err, viper.ErrUnsupported):
		return wire.StatusUnsupported
	case errors.Is(err, viper.ErrValueSize):
		return wire.StatusValueSize
	}
	return wire.StatusInternal
}

// statsJSON renders the sink snapshot for OpStats ("{}" without a sink).
func (s *Server) statsJSON() []byte {
	if s.cfg.Sink == nil {
		return []byte("{}")
	}
	var b bytesBuffer
	if err := s.cfg.Sink.Snapshot().WriteJSON(&b); err != nil {
		return []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	return b.data
}

// bytesBuffer is a minimal io.Writer over a byte slice (avoids pulling
// bytes.Buffer's unused surface into the hot import graph).
type bytesBuffer struct{ data []byte }

func (b *bytesBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

// runCoalescer is the shared read-aggregation loop: collect point gets
// (across connections) for at most CoalesceWait after the first one,
// flush early at CoalesceBatch, resolve with one MultiGet, answer each
// origin connection.
func (s *Server) runCoalescer() {
	defer s.coalesce.Done()
	maxBatch := s.cfg.CoalesceBatch
	if maxBatch < 1 {
		maxBatch = 1
	}
	reqs := make([]getReq, 0, maxBatch)
	keys := make([]uint64, 0, maxBatch)
	groups := make(map[*conn]connBatch)
	for {
		// Wait for the batch opener.
		select {
		case r := <-s.getc:
			reqs = append(reqs, r)
		case <-s.stopc:
			// Connections are all drained before stopc closes, so the
			// queue is empty; nothing to flush.
			return
		}
		// Group-commit fill: drain everything already queued, yield one
		// scheduling quantum so readers mid-frame land their enqueues,
		// drain again, flush. Exactly one yield per batch — repeated
		// yields lockstep with the readers on few cores and pay a full
		// context switch per get, and blocking on a timer convoys
		// closed-loop clients (every outstanding get is in this batch,
		// so nobody can send another until we answer). CoalesceWait
		// bounds the hold time when the queue keeps supplying.
		opened := time.Now()
		yielded := false
		for len(reqs) < maxBatch && time.Since(opened) < s.cfg.CoalesceWait {
			select {
			case r := <-s.getc:
				reqs = append(reqs, r)
				continue
			default:
			}
			if yielded {
				break
			}
			yielded = true
			runtime.Gosched()
		}
		full := len(reqs) >= maxBatch
		keys = keys[:0]
		for _, r := range reqs {
			keys = append(keys, r.key)
		}
		// Pin an epoch across the store call AND the encode below: the
		// returned values alias the PMem region, and the pin defers a
		// concurrent Compact's page frees until the encode is done.
		g := epoch.Enter(0)
		var vals [][]byte
		switch {
		case s.readsExclusive:
			s.opMu.Lock()
			vals = s.store.MultiGet(keys)
			s.opMu.Unlock()
		case s.lockReads:
			s.opMu.RLock()
			vals = s.store.MultiGet(keys)
			s.opMu.RUnlock()
		default:
			vals = s.store.MultiGet(keys)
		}
		// Encode immediately, still under the epoch pin (the returned
		// values alias the PMem region and must not outlive it),
		// grouping responses by origin connection: one writer handoff
		// per connection per batch, not one per get — most of the
		// coalescer's per-op overhead is that channel hop. First pass
		// sizes each connection's buffer exactly (frame prefix + id +
		// status + value) so the encode pass never grows a slice
		// mid-batch; b.n holds the byte total during sizing, then
		// becomes the response count the writer releases.
		for i, r := range reqs {
			b := groups[r.c]
			b.n += 4 + 8 + 1 + len(vals[i])
			groups[r.c] = b
		}
		for c, b := range groups {
			b.buf = make([]byte, 0, b.n)
			b.n = 0
			groups[c] = b
		}
		for i, r := range reqs {
			resp := wire.Response{ID: r.id}
			if vals[i] != nil {
				resp.Value = vals[i]
			} else {
				resp.Status = wire.StatusNotFound
			}
			b := groups[r.c]
			b.buf = wire.AppendResponse(b.buf, &resp)
			b.n++
			groups[r.c] = b
		}
		g.Exit()
		// Deliver without ever blocking: this goroutine is shared by
		// every connection, so a blocking send here would let one
		// stalled client (full response queue behind a writer that is
		// not draining) halt coalesced reads for the whole server. A
		// full queue means the connection is already past backpressure
		// — its writer is stalled and its reader is parked on its own
		// rejections — so drop it: settle its accounting here and close
		// the socket, which unblocks its writer and reader to tear the
		// rest down.
		for c, b := range groups {
			select {
			case c.out <- outMsg{buf: b.buf, admitted: b.n}:
			default:
				s.met.stalledConns.Inc()
				c.inFlight.Add(-int64(b.n))
				s.met.inFlight.Add(-int64(b.n))
				_ = c.raw.Close()
			}
			c.reqWG.Add(-b.n)
			delete(groups, c)
		}
		s.met.coalesceBatches.Inc()
		s.met.coalescedGets.Add(int64(len(reqs)))
		s.met.batch.Record(int64(len(reqs)))
		if full {
			s.met.flushFull.Inc()
		} else {
			s.met.flushTimer.Inc()
		}
		reqs = reqs[:0]
	}
}
