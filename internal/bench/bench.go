// Package bench is the experiment harness: one Experiment per table and
// figure of the paper's evaluation (§III, §IV). Each experiment builds
// its workload, drives the indexes — end-to-end inside the Viper store
// for §III, in isolation for the §IV "pieces" microbenchmarks — and
// prints the rows/series the paper plots.
//
// Absolute numbers will differ from the paper (Go on a laptop vs C++ on
// a dual-socket Optane server); the shapes — which index wins, by what
// rough factor, where behaviour degrades — are what EXPERIMENTS.md
// records against the paper's claims.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"learnedpieces/internal/index"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/stats"
	"learnedpieces/internal/telemetry"
	"learnedpieces/internal/viper"
	"learnedpieces/internal/workload"
)

// Config parameterises a run. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// N is the base dataset size (the paper's 200M, scaled down).
	N int
	// Sizes is the dataset sweep for Figs 10/13/16 (the paper's
	// 200M/400M/800M).
	Sizes []int
	// Threads is the thread sweep for Figs 12/14.
	Threads []int
	// Ops is the request count per measured phase.
	Ops int
	// Seed makes every run reproducible.
	Seed int64
	// PMemLatency enables the simulated NVM latency model.
	PMemLatency bool
	// ValueSize is the record payload (the paper uses 200 bytes).
	ValueSize int
	// Batch, when > 1, drives the read-only experiments through
	// Store.MultiGet in batches of this size instead of per-key Gets
	// (amortises index lookups and reads PMem in offset order).
	Batch int
	// RetrainMode selects where index retrains run for every store the
	// harness opens (libench -retrain).
	RetrainMode viper.RetrainMode
	// CSV switches table output to CSV for plotting pipelines.
	CSV bool
	// Telemetry, when non-nil, attaches every store the harness builds
	// to this sink: counters aggregate across experiments and the
	// snapshot written at the end of a run (libench -snapshot) digests
	// the whole session.
	Telemetry *telemetry.Sink
	// Out receives the rendered tables.
	Out io.Writer
}

// render writes a finished table in the configured format.
func (cfg Config) render(t *stats.Table) {
	if cfg.CSV {
		t.RenderCSV(cfg.Out)
		return
	}
	t.Render(cfg.Out)
}

// DefaultConfig returns the laptop-scale defaults (paper scale / 1000).
func DefaultConfig(out io.Writer) Config {
	return Config{
		N:           200_000,
		Sizes:       []int{200_000, 400_000, 800_000},
		Threads:     []int{1, 2, 4, 8},
		Ops:         200_000,
		Seed:        42,
		PMemLatency: true,
		ValueSize:   viper.DefaultValueSize,
		Out:         out,
	}
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table I: technology comparison of learned indexes", RunTable1},
		{"table2", "Table II: average depth of the learned indexes", RunTable2},
		{"fig10", "Fig 10: end-to-end read-only (YCSB & OSM, size sweep)", RunFig10},
		{"fig11", "Fig 11: read-only on FACE (RS degradation)", RunFig11},
		{"fig12", "Fig 12: multi-threaded read-only", RunFig12},
		{"fig13", "Fig 13: end-to-end write-only (size sweep)", RunFig13},
		{"fig14", "Fig 14: multi-threaded write-only", RunFig14},
		{"fig15", "Fig 15: read-write-mixed YCSB A/B/D/F", RunFig15},
		{"table3", "Table III: space overhead", RunTable3},
		{"fig16", "Fig 16: recovery time", RunFig16},
		{"fig17a", "Fig 17(a): approximation algorithms: error vs in-leaf query time", RunFig17a},
		{"fig17b", "Fig 17(b): approximation algorithms: error vs leaf count", RunFig17b},
		{"fig17c", "Fig 17(c): index structures: leaf count vs locate time", RunFig17c},
		{"fig17d", "Fig 17(d): structure cost vs leaf cost per combination", RunFig17d},
		{"fig18a", "Fig 18(a): insertion strategies vs reserved space", RunFig18a},
		{"fig18b", "Fig 18(b): retraining behaviour per strategy", RunFig18b},
		{"fig18c", "Fig 18(c): buffer size vs retrain count/time", RunFig18c},
		{"fig18d", "Fig 18(d): total insertion + retraining time", RunFig18d},
		{"scan", "Appendix: range-query evaluation", RunScan},
		{"extlipp", "Extension: LIPP (§V-B1 unevaluated design) vs stock", RunExtLIPP},
		{"extapex", "Extension: APEX persistent index vs Viper+ALEX", RunExtAPEX},
		{"cross", "Extension: structure x approximation algorithm cross (§IV-C open question)", RunCross},
	}
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// latency returns the configured PMem latency model.
func (cfg Config) latency() pmem.LatencyModel {
	if cfg.PMemLatency {
		return pmem.Optane()
	}
	return pmem.None()
}

// regionFor sizes a region for n records plus slack.
func (cfg Config) regionFor(n int) *pmem.Region {
	bytes := int64(n) * int64(cfg.ValueSize+32) * 2
	bytes += 64 << 20
	return pmem.NewRegion(int(bytes), cfg.latency())
}

func (cfg Config) value() []byte {
	v := make([]byte, cfg.ValueSize)
	for i := range v {
		v[i] = byte(i)
	}
	return v
}

// storeOptions translates the config into viper.Open options.
func (cfg Config) storeOptions() []viper.Option {
	opts := []viper.Option{viper.WithValueSize(cfg.ValueSize)}
	if cfg.RetrainMode != viper.RetrainInline {
		opts = append(opts, viper.WithRetrainMode(cfg.RetrainMode))
	}
	if cfg.Telemetry != nil {
		opts = append(opts, viper.WithTelemetry(cfg.Telemetry))
	}
	return opts
}

// buildStore creates a Viper store over idx pre-loaded with keys.
func (cfg Config) buildStore(idx index.Index, keys []uint64) (*viper.Store, error) {
	s := viper.Open(cfg.regionFor(len(keys)), idx, cfg.storeOptions()...)
	return s, s.BulkPut(keys, cfg.value())
}

// runReads drives a lookup stream against the store on one goroutine,
// per-key or batched through MultiGet depending on cfg.Batch.
func (cfg Config) runReads(s *viper.Store, ops []workload.Op) stats.Summary {
	if cfg.Batch > 1 {
		return runBatchedReads(s, ops, cfg.Batch)
	}
	h := stats.NewHistogram()
	runtime.GC()
	start := time.Now()
	for _, op := range ops {
		t0 := time.Now()
		if _, ok := s.Get(op.Key); !ok {
			panic(fmt.Sprintf("bench: loaded key %d missing", op.Key))
		}
		h.RecordSince(t0)
	}
	return stats.Summarize("", h, time.Since(start))
}

// runBatchedReads drives the same stream through Store.MultiGet. Each
// key still gets one histogram sample (the batch latency divided across
// its keys) so percentiles stay comparable with the per-key mode.
func runBatchedReads(s *viper.Store, ops []workload.Op, batch int) stats.Summary {
	h := stats.NewHistogram()
	keys := make([]uint64, 0, batch)
	runtime.GC()
	start := time.Now()
	for lo := 0; lo < len(ops); lo += batch {
		hi := lo + batch
		if hi > len(ops) {
			hi = len(ops)
		}
		keys = keys[:0]
		for _, op := range ops[lo:hi] {
			keys = append(keys, op.Key)
		}
		t0 := time.Now()
		vals := s.MultiGet(keys)
		perKey := time.Since(t0).Nanoseconds() / int64(len(keys))
		for i, v := range vals {
			if v == nil {
				panic(fmt.Sprintf("bench: loaded key %d missing", keys[i]))
			}
			h.Record(perKey)
		}
	}
	return stats.Summarize("", h, time.Since(start))
}

// runWrites drives an insert stream against the store.
func runWrites(s *viper.Store, ops []workload.Op, value []byte) (stats.Summary, error) {
	h := stats.NewHistogram()
	runtime.GC()
	start := time.Now()
	for _, op := range ops {
		t0 := time.Now()
		if err := s.Put(op.Key, value); err != nil {
			return stats.Summary{}, err
		}
		h.RecordSince(t0)
	}
	return stats.Summarize("", h, time.Since(start)), nil
}

// runMixed drives a generator-produced mixed stream.
func runMixed(s *viper.Store, gen *workload.Generator, n int, value []byte) (stats.Summary, error) {
	h := stats.NewHistogram()
	runtime.GC()
	start := time.Now()
	for i := 0; i < n; i++ {
		op, _ := gen.Next()
		t0 := time.Now()
		switch op.Kind {
		case workload.OpRead:
			s.Get(op.Key)
		case workload.OpUpdate, workload.OpInsert:
			if err := s.Put(op.Key, value); err != nil {
				return stats.Summary{}, err
			}
		case workload.OpRMW:
			s.Get(op.Key)
			if err := s.Put(op.Key, value); err != nil {
				return stats.Summary{}, err
			}
		case workload.OpScan:
			if err := s.Range(op.Key, op.ScanLen, func(uint64, []byte) bool { return true }); err != nil {
				return stats.Summary{}, err
			}
		}
		h.RecordSince(t0)
	}
	return stats.Summarize("", h, time.Since(start)), nil
}

// mops converts a summary to the paper's Mops/s unit.
func mops(s stats.Summary) float64 { return s.ThroughputOpsPerSec / 1e6 }

// usec converts nanoseconds to the paper's µs tail-latency unit.
func usec(ns int64) float64 { return float64(ns) / 1e3 }

// sortedCopy is a tiny helper for deterministic table ordering.
func sortedCopy(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}
