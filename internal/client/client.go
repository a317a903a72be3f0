// Package client is the Go client for vipersrv's wire protocol.
//
// A Conn multiplexes any number of goroutines over one TCP connection:
// each request gets a fresh ID, registers a completion channel, and is
// written framed onto the shared socket; a single reader goroutine
// routes responses back by ID. Requests that reach the server together
// are executed in the order they were written and answered in one
// socket write, so concurrent callers share round trips.
//
// A Pool spreads that over several connections round-robin, which is
// how a load generator saturates a server without one socket becoming
// the bottleneck.
//
// Every method takes a context; cancellation abandons the wait (the
// response is discarded on arrival) without disturbing other requests
// on the connection. Dup detection is built in: a response whose ID has
// no waiter — a duplicate or a fabrication — is counted, never
// silently dropped, and the load driver asserts the count is zero.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"learnedpieces/internal/wire"
)

// ErrConnClosed fences requests after Close (or after a read-loop
// failure tears the connection down).
var ErrConnClosed = errors.New("client: connection closed")

// defaultWriteTimeout bounds each framed request write. A stalled
// server (or a peer that stopped reading while TCP backpressure filled
// the kernel buffer) would otherwise block the writer under writeMu
// forever, wedging every goroutine multiplexed onto the connection.
const defaultWriteTimeout = 30 * time.Second

// pending tracks one in-flight request: the op (which fixes the
// response payload shape) and the channel the reader delivers on.
type pending struct {
	op wire.Op
	ch chan result
}

type result struct {
	resp wire.Response
	err  error
}

// Conn is one pipelined client connection. Safe for concurrent use.
type Conn struct {
	nc net.Conn

	writeMu      sync.Mutex
	bw           *bufio.Writer
	wbuf         []byte
	writeTimeout time.Duration

	mu      sync.Mutex
	waiters map[uint64]pending
	closed  bool
	readErr error

	nextID atomic.Uint64
	strays atomic.Int64

	readerDone chan struct{}
}

// Dial connects to a vipersrv at addr.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(nc), nil
}

// NewConn wraps an established connection (Dial is the common path;
// tests use in-memory pipes).
func NewConn(nc net.Conn) *Conn {
	c := &Conn{
		nc:           nc,
		bw:           bufio.NewWriterSize(nc, 64<<10),
		waiters:      make(map[uint64]pending),
		readerDone:   make(chan struct{}),
		writeTimeout: defaultWriteTimeout,
	}
	go c.readLoop()
	return c
}

// readLoop routes responses to waiters by ID. On a read error it fails
// every outstanding waiter and marks the connection dead.
func (c *Conn) readLoop() {
	defer close(c.readerDone)
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var buf []byte
	for {
		body, err := wire.ReadFrame(br, buf)
		if err != nil {
			c.fail(err)
			return
		}
		if len(body)+4 > br.Size() {
			buf = body[:0] // too large for br, so ReadFrame copied it here; keep it
		}
		id := wire.PeekID(body)
		c.mu.Lock()
		w, ok := c.waiters[id]
		if ok {
			delete(c.waiters, id)
		}
		c.mu.Unlock()
		if !ok {
			// Duplicate or fabricated ID. Count it — the load driver's
			// zero-lost/zero-dup assertion reads this.
			c.strays.Add(1)
			continue
		}
		resp, derr := wire.DecodeResponse(w.op, body)
		if derr == nil {
			// Decoded slices alias the read buffer; copy before handoff.
			resp = deepCopy(resp)
		}
		w.ch <- result{resp: resp, err: derr}
	}
}

func deepCopy(r wire.Response) wire.Response {
	if r.Value != nil {
		r.Value = append([]byte(nil), r.Value...)
	}
	if r.Values != nil {
		vs := make([][]byte, len(r.Values))
		for i, v := range r.Values {
			if v != nil {
				vs[i] = append([]byte(nil), v...)
			}
		}
		r.Values = vs
	}
	if r.Entries != nil {
		es := make([]wire.Entry, len(r.Entries))
		for i, e := range r.Entries {
			es[i] = wire.Entry{Key: e.Key, Value: append([]byte(nil), e.Value...)}
		}
		r.Entries = es
	}
	return r
}

// fail poisons the connection: every waiter gets err, future requests
// are refused.
func (c *Conn) fail(err error) {
	if err == io.EOF {
		err = ErrConnClosed
	}
	c.mu.Lock()
	c.closed = true
	if c.readErr == nil {
		c.readErr = err
	}
	ws := c.waiters
	c.waiters = make(map[uint64]pending)
	c.mu.Unlock()
	for _, w := range ws {
		w.ch <- result{err: err}
	}
}

// Strays returns how many responses arrived with no matching waiter
// (duplicates or fabrications) — zero on a healthy connection.
func (c *Conn) Strays() int64 { return c.strays.Load() }

// Close tears the connection down. In-flight requests fail with
// ErrConnClosed.
func (c *Conn) Close() error {
	err := c.nc.Close()
	<-c.readerDone
	return err
}

// roundTrip registers a waiter, writes the framed request, and waits
// for the routed response or ctx.
func (c *Conn) roundTrip(ctx context.Context, req *wire.Request) (wire.Response, error) {
	req.ID = c.nextID.Add(1)
	ch := make(chan result, 1) // buffered: an abandoned wait never blocks the reader
	c.mu.Lock()
	if c.closed {
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = ErrConnClosed
		}
		return wire.Response{}, err
	}
	c.waiters[req.ID] = pending{op: req.Op, ch: ch}
	c.mu.Unlock()

	c.writeMu.Lock()
	c.wbuf = wire.AppendRequest(c.wbuf[:0], req)
	// Bound the write: with the peer stalled, an undeadlined write under
	// writeMu would wedge every goroutine sharing this connection.
	werr := c.nc.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	if werr == nil {
		_, werr = c.bw.Write(c.wbuf)
	}
	if werr == nil {
		werr = c.bw.Flush()
	}
	c.writeMu.Unlock()
	if werr != nil {
		c.mu.Lock()
		delete(c.waiters, req.ID)
		c.mu.Unlock()
		return wire.Response{}, werr
	}

	select {
	case r := <-ch:
		if r.err != nil {
			return wire.Response{}, r.err
		}
		if err := r.resp.Status.Err(); err != nil {
			return r.resp, err
		}
		return r.resp, nil
	case <-ctx.Done():
		// Abandon the wait; if the response arrives later the reader
		// finds no waiter and counts a stray — so remove the waiter
		// only if it is still registered (the reader may already have
		// claimed it and be about to deliver).
		c.mu.Lock()
		_, still := c.waiters[req.ID]
		if still {
			delete(c.waiters, req.ID)
		}
		c.mu.Unlock()
		if !still {
			// Delivery raced the cancel: take the response anyway.
			r := <-ch
			if r.err != nil {
				return wire.Response{}, r.err
			}
			if err := r.resp.Status.Err(); err != nil {
				return r.resp, err
			}
			return r.resp, nil
		}
		return wire.Response{}, ctx.Err()
	}
}

// Put stores value under key.
func (c *Conn) Put(ctx context.Context, key uint64, value []byte) error {
	_, err := c.roundTrip(ctx, &wire.Request{Op: wire.OpPut, Key: key, Value: value})
	return err
}

// Get reads key. A miss returns (nil, false, nil).
func (c *Conn) Get(ctx context.Context, key uint64) ([]byte, bool, error) {
	resp, err := c.roundTrip(ctx, &wire.Request{Op: wire.OpGet, Key: key})
	if err != nil {
		return nil, false, err
	}
	if resp.Status == wire.StatusNotFound {
		return nil, false, nil
	}
	return resp.Value, true, nil
}

// Delete removes key, reporting whether it existed.
func (c *Conn) Delete(ctx context.Context, key uint64) (bool, error) {
	resp, err := c.roundTrip(ctx, &wire.Request{Op: wire.OpDelete, Key: key})
	if err != nil {
		return false, err
	}
	return resp.Existed, nil
}

// MultiGet reads a batch; out[i] is nil when keys[i] is absent.
func (c *Conn) MultiGet(ctx context.Context, keys []uint64) ([][]byte, error) {
	if len(keys) > wire.MaxKeys {
		return nil, fmt.Errorf("client: batch of %d exceeds wire.MaxKeys", len(keys))
	}
	resp, err := c.roundTrip(ctx, &wire.Request{Op: wire.OpMultiGet, Keys: keys})
	if err != nil {
		return nil, err
	}
	return resp.Values, nil
}

// RangeChunks streams up to limit live entries with key >= start in
// ascending key order through the server's cursor-continuation scan:
// each server frame carries one bounded chunk (at most
// wire.MaxRangeChunk entries) and the client resumes at the frame's
// ResumeKey until the server reports the range exhausted or limit is
// reached. fn is called once per chunk with that chunk's entries
// (aliasing a per-chunk allocation — safe to retain) and whether more
// chunks follow; returning false stops the stream early.
func (c *Conn) RangeChunks(ctx context.Context, start uint64, limit int, fn func(entries []wire.Entry, more bool) bool) error {
	if limit < 1 || limit > wire.MaxScanLimit {
		return fmt.Errorf("client: range limit %d out of range", limit)
	}
	remaining := limit
	for remaining > 0 {
		resp, err := c.roundTrip(ctx, &wire.Request{
			Op: wire.OpRange, Key: start, Limit: uint32(remaining),
		})
		if err != nil {
			return err
		}
		remaining -= len(resp.Entries)
		more := resp.More && remaining > 0
		if !fn(resp.Entries, more) || !more {
			return nil
		}
		start = resp.ResumeKey
	}
	return nil
}

// Range collects a cursor-continuation scan into one slice: up to
// limit entries with key >= start, in ascending key order, however
// many frames the server needed.
func (c *Conn) Range(ctx context.Context, start uint64, limit int) ([]wire.Entry, error) {
	var out []wire.Entry
	err := c.RangeChunks(ctx, start, limit, func(entries []wire.Entry, _ bool) bool {
		out = append(out, entries...)
		return true
	})
	return out, err
}

// Stats fetches the server's telemetry snapshot as JSON bytes.
func (c *Conn) Stats(ctx context.Context) ([]byte, error) {
	resp, err := c.roundTrip(ctx, &wire.Request{Op: wire.OpStats})
	if err != nil {
		return nil, err
	}
	return resp.Value, nil
}

// Drain asks the server to drain its store's background retrains.
func (c *Conn) Drain(ctx context.Context) error {
	_, err := c.roundTrip(ctx, &wire.Request{Op: wire.OpDrain})
	return err
}

// Pool is a fixed set of connections used round-robin. Safe for
// concurrent use; methods delegate to the next connection.
type Pool struct {
	conns []*Conn
	next  atomic.Uint64
}

// DialPool opens n connections to addr (n < 1 is treated as 1). On any
// dial failure the already-open connections are closed.
func DialPool(addr string, n int) (*Pool, error) {
	if n < 1 {
		n = 1
	}
	p := &Pool{conns: make([]*Conn, 0, n)}
	for i := 0; i < n; i++ {
		c, err := Dial(addr)
		if err != nil {
			_ = p.Close()
			return nil, err
		}
		p.conns = append(p.conns, c)
	}
	return p, nil
}

// Conn returns the next connection round-robin.
func (p *Pool) Conn() *Conn {
	return p.conns[p.next.Add(1)%uint64(len(p.conns))]
}

// Strays sums stray responses over the pool.
func (p *Pool) Strays() int64 {
	var n int64
	for _, c := range p.conns {
		n += c.Strays()
	}
	return n
}

// Close closes every pooled connection, returning the first error.
func (p *Pool) Close() error {
	var first error
	for _, c := range p.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Convenience pass-throughs.

// Put stores value under key on the next pooled connection.
func (p *Pool) Put(ctx context.Context, key uint64, value []byte) error {
	return p.Conn().Put(ctx, key, value)
}

// Get reads key on the next pooled connection.
func (p *Pool) Get(ctx context.Context, key uint64) ([]byte, bool, error) {
	return p.Conn().Get(ctx, key)
}
