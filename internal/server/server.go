// Package server is the network front end over a viper.Store: a TCP
// service speaking the wire package's pipelined binary protocol.
//
// One goroutine per connection runs each burst to completion: it
// decodes every frame already in its read buffer, executes the frames
// in arrival order, appends every response to one reused buffer and
// issues one socket write when the input is drained. A run of
// consecutive Gets becomes one Store.MultiGet (a run of one, a plain
// Store.Get), and a run of consecutive Ranges one Store.Ranges, whose
// scans overlap their reads at their boundaries; any other op ends the
// run. There is no goroutine shared between connections and no queue
// between reading and writing, so a request crosses no scheduler
// hand-off on its way through the server.
//
// Four invariants hold by construction:
//
//   - Bounded memory. A connection holds its read buffer, one frame
//     body and a response buffer that is written out once it passes
//     flushBytes or holds MaxInFlight responses; a Range run cut there
//     still encodes the one scan already in flight. Nothing is ever
//     refused: the window is enforced by writing, not by rejecting.
//   - A client that stops reading only hurts itself. Its connection's
//     goroutine blocks in its own write for at most WriteTimeout and
//     then drops the connection; nobody else waits on it.
//   - Region aliases never outlive their epoch pin: values are copied
//     into the response buffer inside the pin that covers the store
//     call, and no pin is held across a socket write.
//   - Program order per connection: a pipelined Put(k), Get(k),
//     Delete(k), Get(k) observes its own writes.
//
// Graceful drain never drops a received request: Shutdown stops the
// accept loop and half-closes every connection's read side; each
// connection finishes the frames it already received, writes, and
// exits on EOF; then the store's retrain pipeline is drained.
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"learnedpieces/internal/epoch"
	"learnedpieces/internal/stats"
	"learnedpieces/internal/telemetry"
	"learnedpieces/internal/viper"
	"learnedpieces/internal/wire"
)

const (
	// DefaultMaxInFlight is the per-connection in-flight window.
	DefaultMaxInFlight = 128
	// DefaultWriteTimeout bounds one socket write. A client that stops
	// reading responses stalls its connection against a full TCP buffer;
	// the deadline turns that stall into a write error that tears the
	// connection down.
	DefaultWriteTimeout = 30 * time.Second
	// readBufBytes is the per-connection read buffer: the most input one
	// burst is decoded from without another socket read.
	readBufBytes = 64 << 10
	// flushBytes is the response-buffer size that forces a write even
	// though more input is waiting.
	flushBytes = 64 << 10
	// retainBytes is the largest buffer a connection keeps between
	// bursts; one that a large response or request grew past it is
	// released after use.
	retainBytes = 1 << 20
)

// Config parameterises a Server. Store is required; everything else
// has a default.
type Config struct {
	// Addr is the listen address for ListenAndServe ("host:port").
	Addr string
	// Store is the backing key-value store. The server never closes it;
	// lifecycle stays with the caller.
	Store *viper.Store
	// MaxInFlight is the most received-but-unanswered requests a
	// connection holds: once that many responses are buffered they are
	// written before another frame is read. 0 means DefaultMaxInFlight.
	MaxInFlight int
	// WriteTimeout bounds one socket write to a connection; a write that
	// exceeds it fails and the connection is dropped. 0 means
	// DefaultWriteTimeout; negative disables deadlines (tests with
	// deadline-free shims).
	WriteTimeout time.Duration
	// Sink receives the server's counters via SetServerProbe; nil
	// leaves server telemetry disabled.
	Sink *telemetry.Sink
}

// metrics is the server's counter block; read by the telemetry probe.
// Per-request counts are added once per socket write, not per request.
type metrics struct {
	connsOpen telemetry.Gauge

	connsTotal telemetry.Counter
	accepted   telemetry.Counter
	badFrames  telemetry.Counter
	bytesIn    telemetry.Counter
	bytesOut   telemetry.Counter
	writes     telemetry.Counter // socket writes
	drains     telemetry.Counter

	// Get runs of two or more (one MultiGet each): how many, the Gets in
	// them, their lengths, and what ended them — a limit (runFull) or
	// the input (runInput).
	runs     telemetry.Counter
	runGets  telemetry.Counter
	runFull  telemetry.Counter
	runInput telemetry.Counter
	runLen   *stats.Histogram

	// outMax is the largest response buffer any connection has written.
	outMax atomic.Int64
}

// Server serves the wire protocol over TCP.
type Server struct {
	cfg   Config
	store *viper.Store
	met   *metrics

	// opMu serialises store calls the index cannot take concurrently.
	// Two tiers by capability: ConcurrentWrites — no locking at all;
	// otherwise (lockOps) writes and drains take the write lock, and reads
	// and stats probes share the read lock, since every index serves
	// concurrent Gets. A Get run takes its lock once.
	opMu    sync.RWMutex
	lockOps bool

	lnMu   sync.Mutex
	ln     net.Listener
	closed atomic.Bool
	connMu sync.Mutex
	conns  map[*conn]struct{}
	connWG sync.WaitGroup // live connection goroutines
}

// conn is one accepted connection's state. Everything but inFlight is
// touched only by the connection's own goroutine.
type conn struct {
	s   *Server
	raw net.Conn
	nc  *net.TCPConn // raw when it is TCP; enables read-side half-close

	// inFlight counts requests received and not yet written back: the
	// pending run plus the responses in out.
	inFlight atomic.Int64

	// The pending run, in arrival order: the request ids of consecutive
	// Gets and their keys, or of consecutive Ranges and their scans.
	ids   []uint64
	keys  []uint64
	scans []viper.Scan

	out     []byte        // encoded responses awaiting the next write
	resps   int           // how many responses out holds
	req     wire.Request  // each frame decodes here, MultiGet keys into its kept Keys
	resp    wire.Response // scratch for execute and the Range encode
	entries []wire.Entry  // the entries of the Range being encoded

	// Counted here, added to the server's metrics at each write.
	accepted int64
	bytesIn  int64
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
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	s := &Server{
		cfg:     cfg,
		store:   cfg.Store,
		met:     &metrics{runLen: stats.NewHistogram()},
		lockOps: !cfg.Store.Caps().ConcurrentWrites,
		conns:   make(map[*conn]struct{}),
	}
	if cfg.Sink != nil {
		cfg.Sink.SetServerProbe(s.Metrics)
		cfg.Sink.SetProbe(s.indexStats)
	}
	return s, nil
}

// indexStats is the sink's index probe while the server serves: it reads
// the index (Len, Sizes), so it takes the read tier like any other read.
// It is the only place a snapshot takes it — OpStats reaches it through
// statsJSON, and a second RLock would deadlock behind a waiting writer.
func (s *Server) indexStats() telemetry.IndexStats {
	s.lockRead()
	defer s.unlockRead()
	return telemetry.CollectIndexStats(s.store.Index())
}

// Metrics digests the server's own counters (also reachable through a
// sink's server probe; this accessor serves embedders without one).
// Rejected is always zero: this server never refuses a request.
func (s *Server) Metrics() telemetry.ServerSnapshot {
	m := s.met
	sn := telemetry.ServerSnapshot{
		ConnsOpen:       m.connsOpen.Load(),
		ConnsTotal:      m.connsTotal.Load(),
		Accepted:        m.accepted.Load(),
		BadFrames:       m.badFrames.Load(),
		BytesIn:         m.bytesIn.Load(),
		BytesOut:        m.bytesOut.Load(),
		CoalesceBatches: m.runs.Load(),
		CoalescedGets:   m.runGets.Load(),
		BatchP50:        m.runLen.Percentile(50),
		BatchP99:        m.runLen.Percentile(99),
		BatchMax:        m.runLen.Max(),
		FlushFull:       m.runFull.Load(),
		FlushTimer:      m.runInput.Load(),
		Drains:          m.drains.Load(),
	}
	s.connMu.Lock()
	for c := range s.conns {
		sn.InFlight += c.inFlight.Load()
	}
	s.connMu.Unlock()
	return sn
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
	for {
		nc, err := ln.Accept()
		if err != nil {
			return err
		}
		// Non-TCP listeners (tests use in-memory shims) still work; they
		// just lose the half-close drain nicety.
		tc, _ := nc.(*net.TCPConn)
		c := &conn{s: s, raw: nc, nc: tc}
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
		go c.serve()
	}
}

// Shutdown gracefully drains the server: stop accepting, half-close
// every connection's read side, let each connection answer everything
// it already received, then drain the store's retrain pipeline. The
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

	s.met.drains.Inc()
	s.store.DrainRetrains()
	if s.cfg.Sink != nil {
		// Retire the probe: folds this server's totals into the sink so
		// post-shutdown snapshots keep them.
		s.cfg.Sink.SetServerProbe(nil)
	}
	return err
}

// serve is the connection's only goroutine: read a burst, execute it in
// order, write it once. It writes whenever its read buffer runs empty,
// so it parks in a read holding answers only while the rest of a frame
// it has begun to receive is on its way, and it parks in a write for at
// most WriteTimeout.
func (c *conn) serve() {
	s := c.s
	defer s.connWG.Done()
	defer func() {
		_ = c.raw.Close()
		s.connMu.Lock()
		delete(s.conns, c)
		s.connMu.Unlock()
		s.met.connsOpen.Add(-1)
	}()
	br := bufio.NewReaderSize(c.raw, readBufBytes)
	var big []byte // bodies of frames larger than the read buffer
	for {
		body, err := wire.ReadFrame(br, big)
		if err != nil {
			// A cut or oversized frame is a protocol error; a reset, a
			// close or a drain's half-close is not. Either way the frames
			// received before it are answered first.
			if errors.Is(err, wire.ErrFrameTooBig) || errors.Is(err, io.ErrUnexpectedEOF) {
				s.met.badFrames.Inc()
			}
			if c.runPending(false) == nil {
				_ = c.write()
			}
			return
		}
		if len(body)+4 > readBufBytes && len(body) <= retainBytes {
			big = body[:0] // ReadFrame copied it there; keep it for the next one
		}
		c.bytesIn += int64(len(body)) + 4
		req := &c.req
		if err := req.Decode(body); err != nil {
			// The stream may be desynchronised after a malformed frame:
			// answer the frames before it, then this one if its ID was
			// readable, and drop the connection.
			s.met.badFrames.Inc()
			if c.runPending(false) != nil {
				return
			}
			if len(body) >= 8 {
				c.resp = wire.Response{ID: binary.BigEndian.Uint64(body), Status: wire.StatusBadRequest}
				c.out = wire.AppendResponse(c.out, &c.resp)
			}
			_ = c.write()
			return
		}
		c.accepted++
		held := int(c.inFlight.Add(1))
		// A Get or a Range joins the pending run of its op; any other op,
		// or a run of the other op, answers the pending run first.
		switch req.Op {
		case wire.OpGet:
			if len(c.scans) > 0 && c.runPending(false) != nil {
				return
			}
			c.ids = append(c.ids, req.ID)
			c.keys = append(c.keys, req.Key)
		case wire.OpRange:
			if len(c.keys) > 0 && c.runPending(false) != nil {
				return
			}
			c.ids = append(c.ids, req.ID)
			// DecodeRequest rejects a Limit of 0, which Store.Ranges reads
			// as no limit at all.
			c.scans = append(c.scans, viper.Scan{Start: req.Key, N: min(int(req.Limit), wire.MaxRangeChunk)})
		default:
			if c.runPending(false) != nil {
				return
			}
			c.execute(req)
		}
		drained := br.Buffered() == 0
		limit := held >= s.cfg.MaxInFlight || len(c.out) >= flushBytes
		if drained || limit || len(c.ids) == wire.MaxKeys {
			if c.runPending(!drained) != nil {
				return
			}
		}
		if (drained || limit) && c.write() != nil {
			return
		}
	}
}

// write sends the buffered responses in one socket write and settles
// the accounting for them. An error means the connection is dead.
func (c *conn) write() error {
	m := c.s.met
	m.accepted.Add(c.accepted)
	m.bytesIn.Add(c.bytesIn)
	c.accepted, c.bytesIn = 0, 0
	if len(c.out) == 0 {
		return nil
	}
	if c.s.cfg.WriteTimeout > 0 {
		_ = c.raw.SetWriteDeadline(time.Now().Add(c.s.cfg.WriteTimeout))
	}
	n, err := c.raw.Write(c.out)
	m.writes.Inc()
	m.bytesOut.Add(int64(n))
	for size := int64(len(c.out)); ; {
		max := m.outMax.Load()
		if size <= max || m.outMax.CompareAndSwap(max, size) {
			break
		}
	}
	c.inFlight.Add(-int64(c.resps))
	c.resps = 0
	if cap(c.out) > retainBytes {
		c.out, c.entries = nil, nil
	} else {
		c.out = c.out[:0]
	}
	return err
}

// runPending answers the pending run, of Gets or of Ranges, if there is
// one. cut says a limit ended the run (wire.MaxKeys frames, the
// in-flight window, a full buffer) rather than the input (a frame of
// another op, or nothing more buffered). A run whose responses overflow
// the response buffer is answered in several rounds with a write between
// them, so the buffer's bound holds for any value size; the error is
// that write's.
func (c *conn) runPending(cut bool) error {
	if len(c.scans) > 0 {
		return c.runRanges()
	}
	if len(c.keys) > 0 {
		return c.runGets(cut)
	}
	return nil
}

// runGets answers the pending run of Gets (see runPending).
func (c *conn) runGets(cut bool) error {
	if n := len(c.keys); n > 1 {
		m := c.s.met
		m.runs.Inc()
		m.runGets.Add(int64(n))
		m.runLen.Record(int64(n))
		if cut {
			m.runFull.Inc()
		} else {
			m.runInput.Inc()
		}
	}
	ids, keys := c.ids, c.keys
	c.ids, c.keys = c.ids[:0], c.keys[:0]
	for {
		n := c.getRound(ids, keys)
		ids, keys = ids[n:], keys[n:]
		if len(keys) == 0 {
			return nil
		}
		if err := c.write(); err != nil {
			return err
		}
	}
}

// getRound reads keys with one store call — Get for one key, MultiGet
// for more — and encodes responses until all are encoded or the buffer
// passes flushBytes; it returns how many it encoded. The values alias
// the PMem region, so the store call and the encode share one epoch
// pin: a concurrent Compact's page frees are deferred past the copy.
func (c *conn) getRound(ids, keys []uint64) int {
	s := c.s
	g := epoch.Enter(keys[0])
	defer g.Exit()
	var one [1][]byte
	vals := one[:]
	s.lockRead()
	if len(keys) == 1 {
		vals[0], _ = s.store.Get(keys[0])
	} else {
		vals = s.store.MultiGet(keys)
	}
	s.unlockRead()
	for i, v := range vals {
		c.resp = wire.Response{ID: ids[i], Value: v}
		if v == nil {
			c.resp.Status = wire.StatusNotFound
		}
		c.out = wire.AppendResponse(c.out, &c.resp)
		c.resps++
		if len(c.out) >= flushBytes {
			return i + 1
		}
	}
	return len(vals)
}

// runRanges answers the pending run of Ranges (see runPending).
func (c *conn) runRanges() error {
	ids, scans := c.ids, c.scans
	c.ids, c.scans = c.ids[:0], c.scans[:0]
	for {
		n := c.rangeRound(ids, scans)
		ids, scans = ids[n:], scans[n:]
		if len(scans) == 0 {
			return nil
		}
		if err := c.write(); err != nil {
			return err
		}
	}
}

// rangeRound answers Range frames with one Store.Ranges call, taking the
// read tier once, and returns how many it answered: all of them, unless
// the response buffer passed flushBytes first. The cut falls where
// Ranges asks to start another scan, so the scan in flight is still
// encoded and no read is issued for a frame left to the next round.
// Each frame's entries are encoded once its scan is over, with the same
// chunk, frame-budget truncation and continuation as a frame alone. The
// values alias the PMem region, so the store call and the encode share
// one epoch pin, exited with the lock before the caller writes.
//
// An error fails every frame of the round: it comes from an install
// (a view without a cursor) or a close, which, since none of the round
// is answered yet, may be ordered before all of it.
func (c *conn) rangeRound(ids []uint64, scans []viper.Scan) int {
	s := c.s
	g := epoch.Enter(scans[0].Start)
	defer g.Exit()
	s.lockRead()
	defer s.unlockRead()
	out, resps := len(c.out), c.resps
	started, done := 1, 0 // scans Ranges started; frames encoded
	// The frame budget: a chunk carries *up to* its limit, so a response
	// body that would pass wire.MaxFrame is truncated before that entry.
	const empty = respHeaderBytes + rangeHeaderBytes + 4
	body, truncated := empty, false
	finish := func(upto int) {
		for ; done < upto; done++ {
			c.appendRange(ids[done], scans[done], truncated)
			body, truncated = empty, false
		}
	}
	err := s.store.Ranges(scans, func(i int) bool {
		finish(i - 1)
		if len(c.out) >= flushBytes {
			return false
		}
		started = i + 1
		return true
	}, func(i int, k uint64, v []byte) bool {
		finish(i)
		if body+scanEntryBytes+len(v) > wire.MaxFrame {
			truncated = true
			return false
		}
		body += scanEntryBytes + len(v)
		c.entries = append(c.entries, wire.Entry{Key: k, Value: v})
		return true
	})
	if err != nil {
		c.out, c.resps, c.entries = c.out[:out], resps, c.entries[:0]
		for _, id := range ids {
			c.resp = wire.Response{ID: id, Status: statusOf(err)}
			c.out = wire.AppendResponse(c.out, &c.resp)
			c.resps++
		}
		return len(ids)
	}
	finish(started)
	return started
}

// appendRange encodes the response to Range frame id over scan sc from
// the entries its scan delivered. The server is stateless across frames
// — the client carries the cursor as (ResumeKey, remaining limit) — so a
// continuation costs nothing to hold open and survives the store
// retraining or compacting between frames. A full chunk (or a
// frame-budget stop) means the range may continue past the last
// delivered key, unless that key is the top of the key space, where
// there is nowhere to resume.
func (c *conn) appendRange(id uint64, sc viper.Scan, truncated bool) {
	es := c.entries
	c.resp = wire.Response{ID: id, Cursor: true, Entries: es, ResumeKey: sc.Start}
	if n := len(es); n > 0 {
		if last := es[n-1].Key; (n == sc.N || truncated) && last != ^uint64(0) {
			c.resp.More = true
			c.resp.ResumeKey = last + 1
		}
	}
	c.out = wire.AppendResponse(c.out, &c.resp)
	c.resps++
	c.entries = es[:0]
}

// lockRead takes opMu as a store read needs it on this index;
// unlockRead releases it.
func (s *Server) lockRead() {
	if s.lockOps {
		s.opMu.RLock()
	}
}

func (s *Server) unlockRead() {
	if s.lockOps {
		s.opMu.RUnlock()
	}
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

// execute runs one request other than a Get or a Range and appends its
// response. MultiGet results alias the PMem region, so for them the
// store call and the encode both happen under one epoch pin (see
// getRound).
func (c *conn) execute(req *wire.Request) {
	if req.Op == wire.OpMultiGet {
		g := epoch.Enter(req.Key)
		defer g.Exit()
	}
	c.resp = wire.Response{ID: req.ID}
	c.call(req)
	c.out = wire.AppendResponse(c.out, &c.resp)
	c.resps++
}

// call runs req against the store, under opMu when the index needs
// serialisation, and fills c.resp. The lock is released before the
// encode; the caller's epoch pin is what the encode needs.
func (c *conn) call(req *wire.Request) {
	s, resp := c.s, &c.resp
	switch req.Op {
	case wire.OpPut, wire.OpDelete, wire.OpDrain:
		if s.lockOps {
			s.opMu.Lock()
			defer s.opMu.Unlock()
		}
	case wire.OpMultiGet:
		s.lockRead()
		defer s.unlockRead()
	}
	switch req.Op {
	case wire.OpPut:
		resp.Status = statusOf(s.store.Put(req.Key, req.Value))
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
	case wire.OpStats:
		resp.Value = s.statsJSON()
	case wire.OpDrain:
		s.store.DrainRetrains()
		s.met.drains.Inc()
	default:
		resp.Status = wire.StatusBadRequest
	}
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
