// Package load is the YCSB-style multi-client driver for vipersrv: N
// worker goroutines over a pooled pipelined client, each drawing its ops
// from a workload.Generator over a preloaded keyspace, measuring
// whole-round-trip latency, and — the part a throughput number can't
// fake — verifying that every request sent got exactly one response
// (zero lost, zero duplicated IDs), including across a graceful drain.
//
// Two arrival models:
//
//   - Closed loop (Rate == 0): each worker issues its next op when the
//     previous one completes. Throughput is the measurement.
//   - Open loop (Rate > 0): workers fire on a fixed absolute schedule
//     regardless of completions, so server-side queueing shows up as
//     latency instead of hiding in a slowed-down client. (Workers still
//     block per in-flight op, so a saturated server eventually paces
//     even the open loop; the lag counter reports when that happened.)
package load

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"learnedpieces/internal/client"
	"learnedpieces/internal/stats"
	"learnedpieces/internal/wire"
	"learnedpieces/internal/workload"
)

// Config parameterises one load run.
type Config struct {
	// Addr is the vipersrv address.
	Addr string
	// Conns is the connection-pool size (default 4).
	Conns int
	// Clients is the number of concurrent workers (default 8).
	Clients int
	// Ops is the total operation count across workers (default 100k).
	Ops int
	// Keyspace is the preloaded key range [1, Keyspace]; reads, updates
	// and scans draw from it, and each worker inserts into a range of its
	// own above it.
	Keyspace uint64
	// Mix is the request model every worker draws its ops from. Scans
	// stream through the wire protocol's cursor continuation, so
	// Mix.ScanLen may exceed one frame (it is capped at wire.MaxScanLimit);
	// an RMW is a Get then a Put.
	Mix workload.Mix
	// ValueSize is the written payload size (default 200, the paper's).
	ValueSize int
	// Rate > 0 switches to the open loop at that many ops/sec total.
	Rate int
	// Seed fixes every key of the run (default 1): worker w draws from a
	// generator seeded Seed + w*7919.
	Seed int64
	// DrainEvery issues an OpDrain every this many ops per worker
	// (0 = never): the graceful-drain-under-load probe.
	DrainEvery int
}

// Result is one run's measurement, JSON-shaped for viperload -out.
type Result struct {
	Clients     int   `json:"clients"`
	Conns       int   `json:"conns"`
	Ops         int64 `json:"ops"` // completed; an RMW is one op, one read and one update
	Reads       int64 `json:"reads"`
	Updates     int64 `json:"updates"`
	Inserts     int64 `json:"inserts"`
	Misses      int64 `json:"misses"`
	Scans       int64 `json:"scans,omitempty"`
	ScanEntries int64 `json:"scan_entries,omitempty"`
	ScanChunks  int64 `json:"scan_chunks,omitempty"` // continuation frames used
	// ScanViolations counts ranges whose reassembled stream broke the
	// cursor invariant: a key out of ascending order or duplicated
	// across chunk boundaries. Must be zero.
	ScanViolations int64   `json:"scan_violations"`
	Errors         int64   `json:"errors"`
	Lost           int64   `json:"lost"`     // sent, never answered
	Dup            int64   `json:"dup"`      // answered more than once (stray IDs)
	OpenLag        int64   `json:"open_lag"` // open-loop ops fired behind schedule
	DurationNs     int64   `json:"duration_ns"`
	Kops           float64 `json:"kops"`
	P50Ns          int64   `json:"p50_ns"`
	P99Ns          int64   `json:"p99_ns"`
	MaxNs          int64   `json:"max_ns"`
}

// Run executes one load run against a live server. The returned error
// covers setup problems; per-op failures are counted in the Result.
func Run(ctx context.Context, cfg Config) (Result, error) {
	if cfg.Conns <= 0 {
		cfg.Conns = 4
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 100_000
	}
	if cfg.Keyspace == 0 {
		return Result{}, errors.New("load: Keyspace must be set to the preloaded key count")
	}
	if cfg.ValueSize <= 0 {
		cfg.ValueSize = 200
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if m := cfg.Mix; m.Read+m.Update+m.Insert+m.RMW+m.Scan <= 0 {
		return Result{}, fmt.Errorf("load: Mix %q has no operations", m.Name)
	}
	cfg.Mix.ScanLen = min(cfg.Mix.ScanLen, wire.MaxScanLimit)

	pool, err := client.DialPool(cfg.Addr, cfg.Conns)
	if err != nil {
		return Result{}, fmt.Errorf("load: dial %s: %w", cfg.Addr, err)
	}
	defer func() { _ = pool.Close() }()

	lat := stats.NewHistogram()
	keys := make([]uint64, cfg.Keyspace)
	for i := range keys {
		keys[i] = uint64(i) + 1
	}
	value := make([]byte, cfg.ValueSize)
	for i := range value {
		value[i] = byte('a' + i%26)
	}

	var interval time.Duration
	if cfg.Rate > 0 {
		interval = time.Duration(int64(time.Second) * int64(cfg.Clients) / int64(cfg.Rate))
	}

	// Worker w inserts keys from Keyspace + w*stride + 1 on, one per op
	// at most, so no two workers insert the same key.
	stride := (cfg.Ops + cfg.Clients - 1) / cfg.Clients
	workers := make([]worker, cfg.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		// The first Ops%Clients workers issue one op more, so the run
		// issues exactly Ops.
		perWorker := cfg.Ops / cfg.Clients
		if w < cfg.Ops%cfg.Clients {
			perWorker++
		}
		workers[w] = worker{ctx: ctx, c: pool.Conn(), value: value}
		go func(wk *worker, w, perWorker int) {
			defer wg.Done()
			inserts := make([]uint64, perWorker)
			for i := range inserts {
				inserts[i] = cfg.Keyspace + uint64(w*stride+i) + 1
			}
			gen := workload.NewGenerator(cfg.Mix, keys, inserts, cfg.Seed+int64(w)*7919)
			next := start
			for i := 0; i < perWorker; i++ {
				if ctx.Err() != nil {
					return
				}
				if interval > 0 {
					next = next.Add(interval)
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					} else {
						wk.OpenLag++
					}
				}
				if cfg.DrainEvery > 0 && i > 0 && i%cfg.DrainEvery == 0 {
					if wk.answered(wk.c.Drain(ctx)) != nil {
						wk.Errors++
					}
				}
				t0 := time.Now()
				if err := wk.do(gen.Next()); err != nil {
					wk.Errors++
					continue
				}
				wk.Ops++
				lat.Record(time.Since(t0).Nanoseconds())
			}
		}(&workers[w], w, perWorker)
	}
	wg.Wait()
	res := Result{Clients: cfg.Clients, Conns: cfg.Conns, DurationNs: time.Since(start).Nanoseconds()}
	res.Dup = pool.Strays()
	for _, w := range workers {
		res.Ops += w.Ops
		res.Reads += w.Reads
		res.Updates += w.Updates
		res.Inserts += w.Inserts
		res.Misses += w.Misses
		res.Scans += w.Scans
		res.ScanEntries += w.ScanEntries
		res.ScanChunks += w.ScanChunks
		res.ScanViolations += w.ScanViolations
		res.Errors += w.Errors
		res.Lost += w.Lost
		res.OpenLag += w.OpenLag
	}
	if res.DurationNs > 0 {
		res.Kops = float64(res.Ops) / (float64(res.DurationNs) / 1e9) / 1e3
	}
	res.P50Ns, res.P99Ns, res.MaxNs = lat.Percentile(50), lat.Percentile(99), lat.Max()
	return res, nil
}

// worker issues one worker's ops over its connection and counts them in
// its own Result, which Run sums once every worker has returned.
type worker struct {
	Result
	ctx   context.Context
	c     *client.Conn
	value []byte
}

// do issues op. An op ends at its first failed request: an RMW whose Get
// failed sends no Put.
func (w *worker) do(op workload.Op) error {
	switch op.Kind {
	case workload.OpRead:
		return w.get(op.Key)
	case workload.OpUpdate:
		return w.put(op.Key, &w.Updates)
	case workload.OpInsert:
		return w.put(op.Key, &w.Inserts)
	case workload.OpRMW:
		if err := w.get(op.Key); err != nil {
			return err
		}
		return w.put(op.Key, &w.Updates)
	default:
		return w.scan(op.Key, op.ScanLen)
	}
}

func (w *worker) get(key uint64) error {
	_, ok, err := w.c.Get(w.ctx, key)
	if err == nil {
		w.Reads++
		if !ok {
			w.Misses++
		}
	}
	return w.answered(err)
}

// put writes key and, once acknowledged, counts it in done.
func (w *worker) put(key uint64, done *int64) error {
	err := w.c.Put(w.ctx, key, w.value)
	if err == nil {
		*done++
	}
	return w.answered(err)
}

// scan streams a range through the cursor-continuation protocol. The
// callback verifies the cursor invariant — strictly ascending keys with
// no duplicates across chunk boundaries — because a continuation bug
// shows up exactly there, not in kops.
func (w *worker) scan(start uint64, limit int) error {
	var (
		last            uint64
		chunks, entries int64
		violated        bool
	)
	err := w.c.RangeChunks(w.ctx, start, limit, func(es []wire.Entry, _ bool) bool {
		chunks++
		for _, e := range es {
			violated = violated || entries > 0 && e.Key <= last
			last = e.Key
			entries++
		}
		return true
	})
	if err == nil {
		w.Scans++
		w.ScanEntries += entries
		w.ScanChunks += chunks
		if violated {
			w.ScanViolations++
		}
	}
	return w.answered(err)
}

// answered counts the request that returned err as lost when its
// response never arrived. It returns err.
func (w *worker) answered(err error) error {
	if isConnLoss(err) {
		w.Lost++
	}
	return err
}

// isConnLoss reports whether err means the request's response never
// arrived: every error but the wire status sentinels a response carries.
func isConnLoss(err error) bool {
	if err == nil {
		return false
	}
	for _, s := range []error{
		wire.ErrFull, wire.ErrClosed, wire.ErrUnsupported, wire.ErrValueSize,
		wire.ErrBadRequest, wire.ErrBackpressure, wire.ErrInternal,
	} {
		if errors.Is(err, s) {
			return false
		}
	}
	return true
}
