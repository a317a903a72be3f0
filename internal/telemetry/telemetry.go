// Package telemetry is the always-on observability layer of the store:
// zero-allocation, atomics-only counters, gauges and per-op latency
// recorders cheap enough to leave enabled in production, feeding an
// expvar/pprof HTTP endpoint, a structured JSON snapshot (the repo's
// BENCH_*.json perf trajectory) and a plain-text table.
//
// Design constraints, in order:
//
//  1. Hot-path cost. A counted-but-unsampled operation pays one atomic
//     add on a cache-line-private shard; a sampled one additionally pays
//     two clock reads and one histogram record. The disabled path is a
//     nil *StoreMetrics — a single predictable branch, no atomics.
//  2. No cross-core contention. Every counter is padded to its own
//     cache line and latency recorders stripe their tick counters and
//     histograms across shards; readers Merge at snapshot time.
//  3. Pull, don't own. The sink never keeps references to stores,
//     regions or indexes beyond one live probe, so attaching telemetry
//     to hundreds of short-lived benchmark stores cannot leak their
//     multi-hundred-MB regions.
package telemetry

import (
	"runtime"
	"sync/atomic"
	"time"

	"learnedpieces/internal/stats"
)

// Counter is a monotonically increasing atomic counter padded to a full
// cache line so adjacent counters in a metrics struct never false-share.
type Counter struct {
	v atomic.Int64
	_ [56]byte
}

// Inc adds one.
//
//pieces:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//pieces:hotpath
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a settable atomic level (live keys, allocated bytes), padded
// like Counter.
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Add moves the level by delta.
//
//pieces:hotpath
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// recorderShard is one stripe of a Recorder: a tick counter on its own
// cache line plus a private histogram. The histogram's buckets are only
// hot for the worker(s) hashing to this stripe, which is what removes
// the cache-line ping-pong of a single shared histogram.
type recorderShard struct {
	tick atomic.Int64
	_    [56]byte
	hist stats.Histogram
}

// Recorder measures one operation class: every call is counted, and one
// in every `sample` calls is timed into a per-shard histogram. Shard
// selection is caller-provided (a key hash or worker id); any value
// works, it only influences contention.
type Recorder struct {
	smask  int64 // sample-1, sample a power of two: t&smask==0 samples
	mask   uint64
	shards []recorderShard
}

// NewRecorder returns a recorder with the given shard count (rounded up
// to a power of two, minimum 1) recording one in sample calls. The
// sample rate is also rounded up to a power of two so the hot path
// tests it with a mask instead of an integer division (sample <= 1
// records every call).
func NewRecorder(shards, sample int) *Recorder {
	n := 1
	for n < shards {
		n <<= 1
	}
	s := 1
	for s < sample {
		s <<= 1
	}
	return &Recorder{smask: int64(s - 1), mask: uint64(n - 1), shards: make([]recorderShard, n)}
}

// defaultShards sizes recorders to the machine: one stripe per core up
// to 16 (past that, merge cost grows faster than contention shrinks).
func defaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n > 16 {
		n = 16
	}
	return n
}

// Span is an in-flight timed operation. The zero Span (not sampled, or
// telemetry disabled) records nothing on Done.
type Span struct {
	h  *stats.Histogram
	t0 time.Time
}

// Start counts one operation on the stripe's shard and, for sampled
// calls, starts the latency clock. Safe on a nil Recorder.
//
//pieces:hotpath meter
func (r *Recorder) Start(stripe uint64) Span {
	if r == nil {
		return Span{}
	}
	sh := &r.shards[stripe&r.mask]
	t := sh.tick.Add(1)
	if t&r.smask != 0 {
		return Span{}
	}
	return Span{h: &sh.hist, t0: time.Now()}
}

// Done records the elapsed time of a sampled span.
//
//pieces:hotpath meter
func (sp Span) Done() {
	if sp.h != nil {
		sp.h.Record(time.Since(sp.t0).Nanoseconds())
	}
}

// Ops returns the total number of operations counted (sampled or not).
func (r *Recorder) Ops() int64 {
	if r == nil {
		return 0
	}
	var total int64
	for i := range r.shards {
		total += r.shards[i].tick.Load()
	}
	return total
}

// Merged merges every shard histogram into one (a copy; recording may
// continue concurrently).
func (r *Recorder) Merged() *stats.Histogram {
	h := stats.NewHistogram()
	if r == nil {
		return h
	}
	for i := range r.shards {
		h.Merge(&r.shards[i].hist)
	}
	return h
}

// snapshot digests the recorder into the JSON-friendly OpSnapshot.
func (r *Recorder) snapshot() OpSnapshot {
	h := r.Merged()
	return OpSnapshot{
		Ops:     r.Ops(),
		Sampled: h.Count(),
		MeanNs:  h.Mean(),
		P50Ns:   h.Percentile(50),
		P99Ns:   h.Percentile(99),
		P999Ns:  h.Percentile(99.9),
		MaxNs:   h.Max(),
	}
}

// DurationMeter accumulates count and total nanoseconds of rare,
// heavyweight phases (recovery, compaction, bulk load, retrains).
type DurationMeter struct {
	count Counter
	ns    Counter
}

// Observe adds one completed phase.
func (d *DurationMeter) Observe(elapsed time.Duration) {
	d.count.Inc()
	d.ns.Add(elapsed.Nanoseconds())
}

// Stats returns the accumulated count and total nanoseconds.
func (d *DurationMeter) Stats() (count, totalNs int64) {
	return d.count.Load(), d.ns.Load()
}

func (d *DurationMeter) snapshot() PhaseSnapshot {
	c, ns := d.Stats()
	return PhaseSnapshot{Count: c, TotalNs: ns}
}
