package main

import (
	"fmt"

	"learnedpieces/internal/core"
	"learnedpieces/internal/index"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/search"
	"learnedpieces/internal/telemetry"
	"learnedpieces/internal/viper"
)

// config is one store under test: an index from the registry over its
// own simulated-Optane region, with a telemetry sink attached the way
// cmd/vipersrv always attaches one (so the sink's Get-path cost is
// inside every end-to-end number).
type config struct {
	index  string
	fresh  func() index.Index
	region *pmem.Region
	sink   *telemetry.Sink
	store  *viper.Store
}

// bulkValue is the payload BulkPut shares between all loaded keys.
func bulkValue() []byte {
	val := make([]byte, valueSize)
	putStamp(val, bulkMagic, 0)
	for i := 16; i < len(val); i++ {
		val[i] = byte('a' + i%26)
	}
	return val
}

// openConfig opens a store over a region with room for records records
// and bulk-loads the sorted keys.
func openConfig(name string, keys []uint64, records int, w *workload, withSink bool) (*config, error) {
	entry, ok := core.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown index %q", name)
	}
	pages := records*recordBytes/(viper.PageSize-recordBytes) + 16
	c := &config{
		index:  name,
		fresh:  entry.New,
		region: pmem.NewRegion(pages*viper.PageSize, pmem.Optane()),
	}
	var opts []viper.Option
	if withSink {
		c.sink = telemetry.New()
		opts = append(opts, viper.WithTelemetry(c.sink))
	}
	if w.wire {
		// cmd/vipersrv's default retrain mode.
		opts = append(opts, viper.WithRetrainMode(viper.RetrainAsync))
	}
	c.store = viper.Open(c.region, entry.New(), opts...)
	if err := c.store.BulkPut(keys, bulkValue()); err != nil {
		return nil, fmt.Errorf("%s: bulk load: %w", name, err)
	}
	return c, nil
}

// counterSnap is every public counter the benchmark reads at a phase
// boundary of a traced run.
type counterSnap struct {
	pmem         pmem.AccessStats
	mallocs      uint64
	searches     int64
	probes       int64
	store        telemetry.StoreSnapshot
	retrainCount int64
	retrainNs    int64
}

// counterDeltas is the difference of two counterSnaps, as the trace
// file stores it per phase.
type counterDeltas struct {
	Reads         int64 `json:"pmem_reads"`
	LineReads     int64 `json:"pmem_lines_read"`
	LineWrites    int64 `json:"pmem_lines_written"`
	Flushes       int64 `json:"pmem_flushes"`
	ReadStallNs   int64 `json:"pmem_read_stall_ns"`
	WriteStallNs  int64 `json:"pmem_write_stall_ns"`
	Mallocs       int64 `json:"mallocs"`
	Searches      int64 `json:"searches"`
	Probes        int64 `json:"search_probes"`
	PageRollovers int64 `json:"page_rollovers"`
	ScanBatches   int64 `json:"scan_batches"`
	ScanReseeks   int64 `json:"scan_reseeks"`
	RetrainCount  int64 `json:"index_retrains"`
	RetrainNs     int64 `json:"index_retrain_ns"`
}

func (c *config) snap() counterSnap {
	s := counterSnap{
		pmem:    c.region.AccessStats(),
		mallocs: mallocs(),
		store:   c.sink.Snapshot().Store,
	}
	for _, k := range search.StatsSnapshot() {
		s.searches += k.Searches
		s.probes += k.Probes
	}
	s.retrainCount, s.retrainNs, _ = index.RetrainStatsOf(c.store.Index())
	return s
}

func (a counterSnap) until(b counterSnap) counterDeltas {
	return counterDeltas{
		Reads:         b.pmem.Reads - a.pmem.Reads,
		LineReads:     b.pmem.LineReads - a.pmem.LineReads,
		LineWrites:    b.pmem.LineWrites - a.pmem.LineWrites,
		Flushes:       b.pmem.Flushes - a.pmem.Flushes,
		ReadStallNs:   b.pmem.ReadStallNs - a.pmem.ReadStallNs,
		WriteStallNs:  b.pmem.WriteStallNs - a.pmem.WriteStallNs,
		Mallocs:       int64(b.mallocs - a.mallocs),
		Searches:      b.searches - a.searches,
		Probes:        b.probes - a.probes,
		PageRollovers: b.store.PageRollovers - a.store.PageRollovers,
		ScanBatches:   b.store.ScanBatches - a.store.ScanBatches,
		ScanReseeks:   b.store.ScanReseeks - a.store.ScanReseeks,
		RetrainCount:  b.retrainCount - a.retrainCount,
		RetrainNs:     b.retrainNs - a.retrainNs,
	}
}
