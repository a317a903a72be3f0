package telemetry

import (
	"sync"
	"time"

	"learnedpieces/internal/index"
	"learnedpieces/internal/search"
)

// Default sampling rates, chosen so the enabled hot paths stay within
// the 5% overhead budget DESIGN.md records: Get is the highest-volume
// path (two clock reads per sample would otherwise dominate its
// DRAM-resident cost), Put is slower per op so it can afford a denser
// sample, and the rare long operations are always timed.
const (
	// GetSample times one in this many Gets.
	GetSample = 64
	// PutSample times one in this many Puts.
	PutSample = 8
)

// StoreMetrics is the always-on instrumentation of one (or several —
// counters aggregate) Viper stores: per-op latency plus the structural
// events the paper's figures decompose (page rollovers feeding write
// amplification, tombstones feeding space overhead, recovery and
// compaction durations feeding Fig 16).
type StoreMetrics struct {
	Put      *Recorder
	Get      *Recorder
	Delete   *Recorder
	Scan     *Recorder
	MultiGet *Recorder // one observation per batch

	GetMisses     Counter
	MultiGetKeys  Counter
	PageRollovers Counter
	Tombstones    Counter
	LiveKeys      Gauge

	// Batched range-scan shape: batches pulled, entries they carried,
	// batches whose index offsets were already ascending (so the offset
	// sort was a no-op), epoch pin-yields between batches, and cursor
	// reseeks forced by an index install racing a long scan.
	ScanBatches   Counter
	ScanEntries   Counter
	ScanPresorted Counter
	ScanPinYields Counter
	ScanReseeks   Counter

	Recovery   DurationMeter
	Compaction DurationMeter
	BulkLoad   DurationMeter
}

func newStoreMetrics() *StoreMetrics {
	shards := defaultShards()
	return &StoreMetrics{
		Put:      NewRecorder(shards, PutSample),
		Get:      NewRecorder(shards, GetSample),
		Delete:   NewRecorder(shards, 1),
		Scan:     NewRecorder(shards, 1),
		MultiGet: NewRecorder(shards, 1),
	}
}

// The Start* helpers are the store's hot-path entry points. A nil
// *StoreMetrics is the disabled sink: every helper degenerates to one
// branch and the returned zero Span records nothing.

// StartPut counts a Put and starts its (sampled) latency clock.
//
//pieces:hotpath
func (m *StoreMetrics) StartPut(stripe uint64) Span {
	if m == nil {
		return Span{}
	}
	return m.Put.Start(stripe)
}

// StartGet counts a Get and starts its (sampled) latency clock.
//
//pieces:hotpath
func (m *StoreMetrics) StartGet(stripe uint64) Span {
	if m == nil {
		return Span{}
	}
	return m.Get.Start(stripe)
}

// StartDelete counts a Delete and starts its latency clock.
//
//pieces:hotpath
func (m *StoreMetrics) StartDelete(stripe uint64) Span {
	if m == nil {
		return Span{}
	}
	return m.Delete.Start(stripe)
}

// StartScan counts a Scan and starts its latency clock.
//
//pieces:hotpath
func (m *StoreMetrics) StartScan(stripe uint64) Span {
	if m == nil {
		return Span{}
	}
	return m.Scan.Start(stripe)
}

// StartMultiGet counts one batch of n keys and starts its latency clock.
//
//pieces:hotpath
func (m *StoreMetrics) StartMultiGet(n int) Span {
	if m == nil {
		return Span{}
	}
	m.MultiGetKeys.Add(int64(n))
	return m.MultiGet.Start(uint64(n))
}

// ScanBatchPulled counts one cursor batch of n index entries, noting
// whether its record offsets were already ascending.
//
//pieces:hotpath
func (m *StoreMetrics) ScanBatchPulled(n int, presorted bool) {
	if m == nil {
		return
	}
	m.ScanBatches.Inc()
	m.ScanEntries.Add(int64(n))
	if presorted {
		m.ScanPresorted.Inc()
	}
}

// ScanPinYield counts an epoch pin released between scan batches.
//
//pieces:hotpath
func (m *StoreMetrics) ScanPinYield() {
	if m != nil {
		m.ScanPinYields.Inc()
	}
}

// ScanReseek counts a cursor reopened because the store view changed
// across a pin-yield.
//
//pieces:hotpath
func (m *StoreMetrics) ScanReseek() {
	if m != nil {
		m.ScanReseeks.Inc()
	}
}

// GetMiss counts a Get that found no live record.
//
//pieces:hotpath
func (m *StoreMetrics) GetMiss() {
	if m != nil {
		m.GetMisses.Inc()
	}
}

// PageRollover counts a page allocation on the append path.
//
//pieces:hotpath
func (m *StoreMetrics) PageRollover() {
	if m != nil {
		m.PageRollovers.Inc()
	}
}

// Tombstone counts an appended delete marker.
//
//pieces:hotpath
func (m *StoreMetrics) Tombstone() {
	if m != nil {
		m.Tombstones.Inc()
	}
}

// LiveDelta moves the live-key gauge.
//
//pieces:hotpath
func (m *StoreMetrics) LiveDelta(d int64) {
	if m != nil {
		m.LiveKeys.Add(d)
	}
}

// ObserveRecovery times one index-rebuild-from-pages pass.
func (m *StoreMetrics) ObserveRecovery(d time.Duration) {
	if m != nil {
		m.Recovery.Observe(d)
	}
}

// ObserveCompaction times one space-reclamation pass.
func (m *StoreMetrics) ObserveCompaction(d time.Duration) {
	if m != nil {
		m.Compaction.Observe(d)
	}
}

// ObserveBulkLoad times one bulk initialisation.
func (m *StoreMetrics) ObserveBulkLoad(d time.Duration) {
	if m != nil {
		m.BulkLoad.Observe(d)
	}
}

// IndexStats is the uniform per-index digest the capability API makes
// possible: one shape for all twelve indexes, with zero values where a
// capability is absent.
type IndexStats struct {
	Name     string      `json:"name"`
	Len      int         `json:"len"`
	Caps     index.Caps  `json:"caps"`
	Sizes    index.Sizes `json:"sizes"`
	AvgDepth float64     `json:"avg_depth"`
	// RetrainCount / RetrainNs surface RetrainReporter (Fig 18):
	// model rebuilds, node splits/merges, and for the read-only indexes
	// (RMI, RS) the full (re)build the recovery path pays.
	RetrainCount int64 `json:"retrain_count"`
	RetrainNs    int64 `json:"retrain_ns"`
}

// CollectIndexStats digests idx through the capability API.
func CollectIndexStats(idx index.Index) IndexStats {
	st := IndexStats{Name: idx.Name(), Len: idx.Len(), Caps: index.CapsOf(idx), Sizes: idx.Sizes()}
	st.AvgDepth, _ = index.DepthOf(idx)
	st.RetrainCount, st.RetrainNs, _ = index.RetrainStatsOf(idx)
	return st
}

// Sink is the process-wide aggregation point. Stores attach with
// viper.WithTelemetry; their shared counters live in Store. The
// simulated device and the index are observed by pulling, not pushing:
// the sink keeps at most one live probe of each (the most recently
// attached store's), reads it at snapshot time, and folds a retiring
// probe's final values into cumulative state when it is replaced — so
// the device and index hot paths pay nothing for the sink, and the sink
// never owns retired stores or their multi-hundred-MB regions.
type Sink struct {
	Store *StoreMetrics

	mu           sync.Mutex
	indexes      map[string]IndexStats
	probe        func() IndexStats
	pmem         PMemSnapshot // folded totals of retired regions
	pmemProbe    func() PMemSnapshot
	retrain      RetrainSnapshot // folded totals of retired pools
	retrainProbe func() RetrainSnapshot
	server       ServerSnapshot // folded totals of retired servers
	serverProbe  func() ServerSnapshot
}

// New returns an enabled sink. Attaching a sink also switches on the
// last-mile search kernel accounting — like the device probes, the
// kernels only pay for counting while somebody is observing.
func New() *Sink {
	search.EnableStats(true)
	return &Sink{
		Store:   newStoreMetrics(),
		indexes: make(map[string]IndexStats),
	}
}

// StoreSink returns the store-side metrics, nil when the sink itself is
// nil — which is how a disabled sink propagates to the hot paths.
func (s *Sink) StoreSink() *StoreMetrics {
	if s == nil {
		return nil
	}
	return s.Store
}

// SetPMemProbe installs the live device probe. The previous probe, if
// any, is read one final time and folded into the sink's cumulative
// device totals, so counters aggregate across store generations. Safe
// on a nil sink.
func (s *Sink) SetPMemProbe(p func() PMemSnapshot) {
	if s != nil {
		installProbe(&s.mu, &s.pmemProbe, p, func(final PMemSnapshot) { s.pmem = s.pmem.add(final) })
	}
}

// SetRetrainProbe installs the live retrain-pool probe. The previous
// probe, if any, is read one final time and folded into the sink's
// cumulative retrain totals, so counters aggregate across store
// generations. Safe on a nil sink.
func (s *Sink) SetRetrainProbe(p func() RetrainSnapshot) {
	if s != nil {
		installProbe(&s.mu, &s.retrainProbe, p, func(final RetrainSnapshot) { s.retrain = s.retrain.add(final) })
	}
}

// SetServerProbe installs the live network-server probe. The previous
// probe, if any, is read one final time and folded into the sink's
// cumulative server totals, so counters aggregate across server
// generations (one vipersrv per process is the normal case, but the
// bench harness restarts servers per configuration). Safe on a nil sink.
func (s *Sink) SetServerProbe(p func() ServerSnapshot) {
	if s != nil {
		installProbe(&s.mu, &s.serverProbe, p, func(final ServerSnapshot) {
			// A retired server has no open connections or in-flight work
			// left to report; fold only its lifetime totals.
			final.ConnsOpen, final.InFlight = 0, 0
			s.server = s.server.add(final)
		})
	}
}

// SetProbe installs the live index probe. The previous probe, if any, is
// invoked one final time so the retiring store's index contributes its
// final counters before the sink forgets it. Safe on a nil sink.
func (s *Sink) SetProbe(p func() IndexStats) {
	if s != nil {
		installProbe(&s.mu, &s.probe, p, func(final IndexStats) { s.indexes[final.Name] = final })
	}
}

// installProbe is every probe setter's body: it installs p in *slot and,
// if a probe was there, reads the retired one a final time outside mu
// and folds that reading into the sink under mu.
func installProbe[T any](mu *sync.Mutex, slot *func() T, p func() T, fold func(final T)) {
	mu.Lock()
	old := *slot
	*slot = p
	mu.Unlock()
	if old != nil {
		final := old()
		mu.Lock()
		fold(final)
		mu.Unlock()
	}
}
