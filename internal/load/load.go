// Package load is the YCSB-style multi-client driver for vipersrv: N
// worker goroutines over a pooled pipelined client, issuing a
// read/update/insert mix against a preloaded keyspace, measuring
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
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"learnedpieces/internal/client"
	"learnedpieces/internal/stats"
	"learnedpieces/internal/wire"
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
	// Keyspace is the preloaded key range [1, Keyspace]; reads and
	// updates draw from it per Dist, inserts allocate above it.
	Keyspace uint64
	// Dist is the request distribution over the keyspace: "zipf"
	// (YCSB's scrambled Zipfian, theta 0.99 — the benchmark's default
	// request model) or "uniform". Empty means uniform.
	Dist string
	// ReadFrac / UpdateFrac / InsertFrac / ScanFrac select the mix;
	// they are normalised, so 95/5/0 and 0.95/0.05/0 mean the same
	// thing. ScanFrac > 0 issues short ranges through the wire
	// protocol's cursor-continuation scan (YCSB-E's scan op): start key
	// drawn per Dist, length per ScanLen/ScanLenDist.
	ReadFrac, UpdateFrac, InsertFrac, ScanFrac float64
	// ScanLen is the maximum range length (default 100, YCSB-E's).
	ScanLen int
	// ScanLenDist picks each range's length in [1, ScanLen]: "uniform"
	// (YCSB-E's default) or "zipf" (mostly-short ranges with a heavy
	// tail). Empty means uniform.
	ScanLenDist string
	// ValueSize is the written payload size (default 200, the paper's).
	ValueSize int
	// Rate > 0 switches to the open loop at that many ops/sec total.
	Rate int
	// Seed makes the key sequence reproducible (default 1).
	Seed int64
	// DrainEvery issues an OpDrain every this many ops per worker
	// (0 = never): the graceful-drain-under-load probe.
	DrainEvery int
}

// Result is one run's measurement, JSON-shaped for viperload -out.
type Result struct {
	Label       string `json:"label"`
	Clients     int    `json:"clients"`
	Conns       int    `json:"conns"`
	Ops         int64  `json:"ops"`
	Reads       int64  `json:"reads"`
	Updates     int64  `json:"updates"`
	Inserts     int64  `json:"inserts"`
	Misses      int64  `json:"misses"`
	Scans       int64  `json:"scans,omitempty"`
	ScanEntries int64  `json:"scan_entries,omitempty"`
	ScanChunks  int64  `json:"scan_chunks,omitempty"` // continuation frames used
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
	switch cfg.Dist {
	case "", "uniform", "zipf":
	default:
		return Result{}, fmt.Errorf("load: Dist must be \"zipf\" or \"uniform\", got %q", cfg.Dist)
	}
	if cfg.ScanLen <= 0 {
		cfg.ScanLen = 100
	}
	if cfg.ScanLen > wire.MaxScanLimit {
		cfg.ScanLen = wire.MaxScanLimit
	}
	switch cfg.ScanLenDist {
	case "", "uniform", "zipf":
	default:
		return Result{}, fmt.Errorf("load: ScanLenDist must be \"zipf\" or \"uniform\", got %q", cfg.ScanLenDist)
	}
	total := cfg.ReadFrac + cfg.UpdateFrac + cfg.InsertFrac + cfg.ScanFrac
	if total <= 0 {
		return Result{}, errors.New("load: operation mix sums to zero")
	}
	readCut := cfg.ReadFrac / total
	updateCut := readCut + cfg.UpdateFrac/total
	scanCut := updateCut + cfg.ScanFrac/total

	pool, err := client.DialPool(cfg.Addr, cfg.Conns)
	if err != nil {
		return Result{}, fmt.Errorf("load: dial %s: %w", cfg.Addr, err)
	}
	defer func() { _ = pool.Close() }()

	var (
		res     Result
		lat     = stats.NewHistogram()
		sent    atomic.Int64
		acked   atomic.Int64
		reads   atomic.Int64
		updates atomic.Int64
		inserts atomic.Int64
		misses  atomic.Int64
		scans   atomic.Int64
		scanEnt atomic.Int64
		scanChk atomic.Int64
		scanBad atomic.Int64
		errs    atomic.Int64
		lag     atomic.Int64
		nextKey atomic.Uint64
	)
	nextKey.Store(cfg.Keyspace)
	value := make([]byte, cfg.ValueSize)
	for i := range value {
		value[i] = byte('a' + i%26)
	}

	var interval time.Duration
	if cfg.Rate > 0 {
		interval = time.Duration(int64(time.Second) * int64(cfg.Clients) / int64(cfg.Rate))
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Clients; w++ {
		wg.Add(1)
		// The first Ops%Clients workers issue one op more, so the run
		// issues exactly Ops.
		perWorker := cfg.Ops / cfg.Clients
		if w < cfg.Ops%cfg.Clients {
			perWorker++
		}
		go func(w, perWorker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			// Same request model as internal/workload: YCSB's scrambled
			// Zipfian — ranks are skewed, the fibonacci multiply spreads
			// the hot ranks over the key space so skew does not become
			// key-order locality for free.
			var zipf *rand.Zipf
			if cfg.Dist == "zipf" {
				zipf = rand.NewZipf(rng, 1.01, 1, cfg.Keyspace-1)
			}
			pick := func() uint64 {
				if zipf != nil {
					return (zipf.Uint64()*0x9E3779B97F4A7C15)%cfg.Keyspace + 1
				}
				return rng.Uint64()%cfg.Keyspace + 1
			}
			// Range-start picks stay UNscrambled on zipf: YCSB-E's scans
			// start at skewed positions but walk the key space in order,
			// so the hot start keys must keep their key-order locality.
			pickStart := func() uint64 {
				if zipf != nil {
					return zipf.Uint64()%cfg.Keyspace + 1
				}
				return rng.Uint64()%cfg.Keyspace + 1
			}
			var lenZipf *rand.Zipf
			if cfg.ScanLenDist == "zipf" && cfg.ScanLen > 1 {
				lenZipf = rand.NewZipf(rng, 1.5, 1, uint64(cfg.ScanLen-1))
			}
			pickLen := func() int {
				if cfg.ScanLen <= 1 {
					return 1
				}
				if lenZipf != nil {
					return int(lenZipf.Uint64()) + 1
				}
				return rng.Intn(cfg.ScanLen) + 1
			}
			c := pool.Conn()
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
						lag.Add(1)
					}
				}
				if cfg.DrainEvery > 0 && i > 0 && i%cfg.DrainEvery == 0 {
					sent.Add(1)
					if err := c.Drain(ctx); err == nil {
						acked.Add(1)
					} else if !isConnLoss(err) {
						acked.Add(1)
						errs.Add(1)
					}
				}
				p := rng.Float64()
				t0 := time.Now()
				sent.Add(1)
				var err error
				switch {
				case p < readCut:
					key := pick()
					var ok bool
					_, ok, err = c.Get(ctx, key)
					if err == nil {
						reads.Add(1)
						if !ok {
							misses.Add(1)
						}
					}
				case p < updateCut:
					err = c.Put(ctx, pick(), value)
					if err == nil {
						updates.Add(1)
					}
				case p < scanCut:
					// YCSB-E scan: zipf-skewed start, bounded length, streamed
					// through the cursor-continuation protocol. The callback
					// verifies the cursor invariant — strictly ascending keys
					// with no duplicates across chunk boundaries — because a
					// continuation bug shows up exactly there, not in kops.
					var (
						last     uint64
						chunks   int64
						entries  int64
						violated bool
						first    = true
					)
					err = c.RangeChunks(ctx, pickStart(), pickLen(), func(es []wire.Entry, _ bool) bool {
						chunks++
						for _, e := range es {
							if !first && e.Key <= last {
								violated = true
							}
							first = false
							last = e.Key
							entries++
						}
						return true
					})
					if err == nil {
						scans.Add(1)
						scanEnt.Add(entries)
						scanChk.Add(chunks)
						if violated {
							scanBad.Add(1)
						}
					}
				default:
					err = c.Put(ctx, nextKey.Add(1), value)
					if err == nil {
						inserts.Add(1)
					}
				}
				switch {
				case err == nil:
					acked.Add(1)
					lat.Record(time.Since(t0).Nanoseconds())
				case isConnLoss(err):
					// The wait ended without a response: genuinely lost
					// unless the drain accounting explains it.
					errs.Add(1)
				default:
					// Typed server error (full, unsupported...): answered.
					acked.Add(1)
					errs.Add(1)
				}
			}
		}(w, perWorker)
	}
	wg.Wait()
	res.DurationNs = time.Since(start).Nanoseconds()

	res.Clients = cfg.Clients
	res.Conns = cfg.Conns
	res.Reads = reads.Load()
	res.Updates = updates.Load()
	res.Inserts = inserts.Load()
	res.Misses = misses.Load()
	res.Scans = scans.Load()
	res.ScanEntries = scanEnt.Load()
	res.ScanChunks = scanChk.Load()
	res.ScanViolations = scanBad.Load()
	res.Errors = errs.Load()
	res.OpenLag = lag.Load()
	res.Ops = res.Reads + res.Updates + res.Inserts + res.Scans
	res.Lost = sent.Load() - acked.Load()
	res.Dup = pool.Strays()
	if res.DurationNs > 0 {
		res.Kops = float64(res.Ops) / (float64(res.DurationNs) / 1e9) / 1e3
	}
	res.P50Ns = lat.Percentile(50)
	res.P99Ns = lat.Percentile(99)
	res.MaxNs = lat.Max()
	return res, nil
}

// isConnLoss reports whether err means the request's response never
// arrived (as opposed to a response carrying an error status).
func isConnLoss(err error) bool {
	return errors.Is(err, client.ErrConnClosed) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		(err != nil && wireStatusErr(err) == nil)
}

// wireStatusErr returns err when it is one of the wire status
// sentinels, nil otherwise.
func wireStatusErr(err error) error {
	for _, s := range []error{
		wire.ErrFull, wire.ErrClosed, wire.ErrUnsupported, wire.ErrValueSize,
		wire.ErrBadRequest, wire.ErrBackpressure, wire.ErrInternal,
	} {
		if errors.Is(err, s) {
			return s
		}
	}
	return nil
}
