package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"syscall"
	"time"

	"learnedpieces/internal/client"
	"learnedpieces/internal/server"
	"learnedpieces/internal/telemetry"
	"learnedpieces/internal/wire"
)

// ioTimeout bounds every socket read and write of the load generator:
// a lost response ends the run with an error instead of hanging it.
const ioTimeout = 20 * time.Second

// served is a server.New over one store with cmd/vipersrv's defaults
// (coalescer on, window 128), listening on a loopback port.
type served struct {
	srv     *server.Server
	addr    string
	done    chan error
	stopped bool
}

func serve(cfg *config) (*served, error) {
	srv, err := server.New(server.Config{Store: cfg.store, Sink: cfg.sink})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

// stop drains the server and waits for its accept loop to return; a
// second stop does nothing.
func (s *served) stop() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), ioTimeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; err == nil && !errors.Is(serr, net.ErrClosed) {
		err = serr
	}
	return err
}

// cpuNs is the process's user plus system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// wireTotals is what the server and the process spent on one stretch
// of wire traffic.
type wireTotals struct {
	ops   int
	cpuNs int64
	srv   telemetry.ServerSnapshot // counter deltas; BatchP50 is the level at the end
}

// totals is the server's counters since m0, with the CPU the caller
// measured over the same traffic.
func (s *served) totals(ops int, cpu int64, m0 telemetry.ServerSnapshot) wireTotals {
	m := s.srv.Metrics()
	m.Accepted -= m0.Accepted
	m.Rejected -= m0.Rejected
	m.BytesIn -= m0.BytesIn
	m.BytesOut -= m0.BytesOut
	m.CoalesceBatches -= m0.CoalesceBatches
	m.CoalescedGets -= m0.CoalescedGets
	m.FlushTimer -= m0.FlushTimer
	return wireTotals{ops: ops, cpuNs: cpu, srv: m}
}

// wirePhase drives a phase over loopback TCP: one connection and one
// generator goroutine per stream, closed loop in pipelined bursts of
// wireBurst frames (redis-benchmark -P 16's shape; no more goroutines
// or sockets than cores). An op's latency runs from its burst's send to
// its own response. Every request id must be answered exactly once.
type wirePhase struct {
	tr    *tracer
	base  time.Time
	conns []*wireConn
	res   phaseResult
}

// wireConn is one connection's generator and what it recorded.
type wireConn struct {
	nc      net.Conn
	br      *bufio.Reader
	s       *stream
	ops     []op
	per     int      // ops per round: equal slices, whole bursts
	lat     []uint32 // per op: burst send to own response
	sent    []int64  // per burst: send stamp
	nextID  uint64
	val     []byte
	frames  []byte
	body    []byte
	failed  int
	entries int
	seconds float64 // of the round just run
	err     error
}

func beginWire(addr, name string, streams []*stream, ops [][]op, rounds int, tr *tracer) (*wirePhase, error) {
	p := &wirePhase{tr: tr, base: time.Now(), res: phaseResult{name: name}}
	if tr != nil {
		p.base = tr.t0
	}
	for i, s := range streams {
		nc, err := net.DialTimeout("tcp", addr, ioTimeout)
		if err != nil {
			p.close()
			return nil, err
		}
		per := (len(ops[i]) + rounds - 1) / rounds
		p.conns = append(p.conns, &wireConn{
			nc: nc, br: bufio.NewReaderSize(nc, 64<<10), s: s, ops: ops[i],
			per:    max((per+wireBurst-1)/wireBurst*wireBurst, wireBurst),
			lat:    make([]uint32, len(ops[i])),
			nextID: 1,
			val:    bulkValue(),
		})
	}
	return p, nil
}

func (p *wirePhase) close() {
	for _, c := range p.conns {
		_ = c.nc.Close()
	}
}

func (p *wirePhase) round(k int) error {
	var wg sync.WaitGroup
	for _, c := range p.conns {
		wg.Add(1)
		go func(c *wireConn) {
			defer wg.Done()
			c.round(k, p.base)
		}(c)
	}
	wg.Wait()

	// The generator's loop is the same traced or not (spans are built
	// afterwards), but rounds are still labelled alternately, so
	// trace.overhead_ratio is measured the same way on every workload.
	rs := roundStat{Traced: p.tr != nil && k%2 == 0}
	var roundOps []op
	var roundLat []uint32
	for i, c := range p.conns {
		if c.err != nil {
			return fmt.Errorf("%s: connection %d: %w", p.res.name, i, c.err)
		}
		lo := min(k*c.per, len(c.ops))
		hi := min(lo+c.per, len(c.ops))
		if lo == hi {
			continue
		}
		roundOps = append(roundOps, c.ops[lo:hi]...)
		roundLat = append(roundLat, c.lat[lo:hi]...)
		rs.Ops += hi - lo
		rs.Rate += float64(hi-lo) / c.seconds
	}
	if rs.Ops > 0 {
		var scratch [numClasses][]uint32
		rs.Class = digestRound(roundOps, roundLat, &scratch)
		p.res.rounds = append(p.res.rounds, rs)
		p.res.ops += rs.Ops
	}
	return nil
}

func (p *wirePhase) end() *phaseResult {
	p.close()
	for _, c := range p.conns {
		p.res.failed += c.failed
		p.res.entries += c.entries
	}
	if p.tr == nil {
		return &p.res
	}
	opBase := p.tr.phase(p.res.name)
	for ci, c := range p.conns {
		for i := range c.ops {
			if sampled(i) {
				sent := c.sent[i/wireBurst]
				p.tr.root(opBase+int64(ci)<<24+int64(i), "client", classNames[c.ops[i].kind.class()],
					sent, sent+int64(c.lat[i]))
			}
		}
	}
	p.tr.aggregateClasses("client", &p.res)
	return &p.res
}

// round runs the connection's slice of round k.
func (c *wireConn) round(k int, base time.Time) {
	lo := min(k*c.per, len(c.ops))
	hi := min(lo+c.per, len(c.ops))
	start := time.Since(base)
	var req wire.Request
	for b := lo; b < hi; b += wireBurst {
		burst := c.ops[b:min(b+wireBurst, hi)]
		c.frames = c.frames[:0]
		for j := range burst {
			o := &burst[j]
			req = wire.Request{ID: c.nextID + uint64(j), Key: o.key}
			switch o.kind {
			case kGet:
				req.Op = wire.OpGet
			case kUpdate, kInsert:
				req.Op = wire.OpPut
				putStamp(c.val, o.key, o.want)
				req.Value = c.val
			case kDelete:
				req.Op = wire.OpDelete
			case kMultiGet:
				req.Op = wire.OpMultiGet
				req.Keys = c.s.mgKeys[o.key : o.key+multiGetBatch]
			case kRange:
				req.Op = wire.OpRange
				req.Limit = uint32(o.n)
			}
			c.frames = wire.AppendRequest(c.frames, &req)
		}
		sent := time.Since(base)
		c.sent = append(c.sent, int64(sent))
		if c.err = c.nc.SetDeadline(time.Now().Add(ioTimeout)); c.err != nil {
			return
		}
		if _, c.err = c.nc.Write(c.frames); c.err != nil {
			return
		}
		var seen [wireBurst]bool
		for got := 0; got < len(burst); got++ {
			var err error
			if c.body, err = wire.ReadFrame(c.br, c.body); err != nil {
				// A response that never arrives ends here, by deadline.
				c.err = fmt.Errorf("lost response (%d of %d in burst answered): %w", got, len(burst), err)
				return
			}
			j := wire.PeekID(c.body) - c.nextID
			if j >= uint64(len(burst)) || seen[j] {
				c.err = fmt.Errorf("stray or duplicate response id %d", wire.PeekID(c.body))
				return
			}
			seen[j] = true
			n, ok := checkResponse(c.s, &burst[j], c.body)
			if !ok {
				c.failed++
			}
			c.entries += n
			c.lat[b+int(j)] = uint32(min(int64(time.Since(base)-sent), math.MaxUint32))
		}
		c.nextID += uint64(len(burst))
	}
	c.seconds = (time.Since(base) - start).Seconds()
}

var wireOps = [...]wire.Op{kGet: wire.OpGet, kUpdate: wire.OpPut, kInsert: wire.OpPut,
	kDelete: wire.OpDelete, kMultiGet: wire.OpMultiGet, kRange: wire.OpRange}

// checkResponse decodes and checks one response; n is the number of
// entries it carried.
func checkResponse(s *stream, o *op, body []byte) (n int, ok bool) {
	resp, err := wire.DecodeResponse(wireOps[o.kind], body)
	if err != nil || resp.Status != wire.StatusOK {
		return 0, false
	}
	switch o.kind {
	case kGet:
		ver, good := readStamp(resp.Value, o.key)
		return 0, good && ver-o.want <= uint64(o.n)
	case kDelete:
		return 0, resp.Existed
	case kMultiGet:
		keys := s.mgKeys[o.key : o.key+multiGetBatch]
		if len(resp.Values) != len(keys) {
			return 0, false
		}
		h := fnvOffset
		for j, v := range resp.Values {
			ver, good := readStamp(v, keys[j])
			if !good {
				return len(keys), false
			}
			h = mixHash(h, ver)
		}
		// Another connection's writes never touch this partition's
		// keys, so the versions are exact.
		return len(keys), h == o.want
	case kRange:
		// The other partitions' keys interleave with this one's, so the
		// check is order, bounds and that every value belongs to its key.
		es := resp.Entries
		if len(es) == 0 || len(es) > int(o.n) || es[0].Key < o.key {
			return len(es), false
		}
		for j, e := range es {
			if _, good := readStamp(e.Value, e.Key); !good || (j > 0 && e.Key <= es[j-1].Key) {
				return len(es), false
			}
		}
		return len(es), true
	}
	return 0, true
}

// probeResult is what the depth-1 boundary pass measured: Gets and
// Ranges through client.Conn, one at a time, against a live server.
type probeResult struct {
	get       classStat
	scan      classStat
	allocsPer float64
	failed    int
}

func runClientProbe(addr string, s *stream, tr *tracer) (probeResult, error) {
	var p probeResult
	conn, err := client.Dial(addr)
	if err != nil {
		return p, err
	}
	defer func() { _ = conn.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 3*ioTimeout)
	defer cancel()
	opBase := tr.phase("client-probe")
	var lat [numClasses][]uint32
	var gets int
	m0 := mallocs()
	for i := range s.ops {
		o := &s.ops[i]
		t0 := tr.now()
		switch o.kind {
		case kGet:
			v, found, err := conn.Get(ctx, o.key)
			if err != nil {
				return p, err
			}
			if ver, good := readStamp(v, o.key); !found || !good || ver != o.want {
				p.failed++
			}
			gets++
		case kRange:
			es, err := conn.Range(ctx, o.key, int(o.n))
			if err != nil {
				return p, err
			}
			if len(es) == 0 || len(es) > int(o.n) {
				p.failed++
			}
		}
		t1 := tr.now()
		c := o.kind.class()
		lat[c] = append(lat[c], uint32(min(t1-t0, math.MaxUint32)))
		if sampled(i) {
			tr.root(opBase+int64(i), "client", "depth1_"+classNames[c], t0, t1)
		}
	}
	p.allocsPer = float64(mallocs()-m0) / float64(len(s.ops))
	p.get, p.scan = digest(lat[cGet]), digest(lat[cRange])
	tr.aggregate("client", "depth1_get", int64(p.get.N), p.get.Mean*float64(p.get.N))
	return p, nil
}
