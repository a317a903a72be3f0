// Benchmarks: the paper's tables and figures (§III, §IV), its §V
// extensions and DESIGN.md's ablations, one Benchmark per figure. A
// figure's rows are sub-benchmarks per dataset, size and index: index/…
// times the bare index, store/… the same operation inside viper.Store on
// simulated Optane. The counters a figure plots (depth, bytes per key,
// leaves and model error, retrains, the p99.9 tail) are reported with
// b.ReportMetric. A row builds what it needs itself, so a -bench pattern
// that skips it skips its setup:
//
//	go test -run '^$' -bench 'Fig10ReadOnly/ycsb/200k' .
//	go test -run '^$' -bench Fig14 -cpu 1,2,4,8 .
package learnedpieces_test

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"learnedpieces/internal/core"
	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/learned/apex"
	"learnedpieces/internal/learned/flat"
	"learnedpieces/internal/learned/pgm"
	"learnedpieces/internal/pla"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/stats"
	"learnedpieces/internal/viper"
	"learnedpieces/internal/workload"
)

// benchN is the paper's 200M keys over 1000, and benchSeed its one seed,
// so every counter reads the same on every run. Every size a table
// sweeps is a multiple or fraction of benchN; only TestPaperTablesRun
// changes it, to run each table once at toy size.
var benchN = 200_000

const benchSeed = 42

// benchSizes is the paper's 200M–800M sweep over 1000.
func benchSizes() []int { return []int{benchN, 2 * benchN, 4 * benchN} }

var (
	benchDatasets = []dataset.Kind{dataset.YCSBNormal, dataset.OSMLike}
	// endToEndNames is §III's index set in plot order: the learned
	// indexes, the sorted traditional ones, and CCEH, the unsorted upper
	// bound. updatableNames are the ones the write figures drive.
	endToEndNames  = []string{"rmi", "rs", "fiting-inp", "fiting-buf", "pgm", "alex", "xindex", "btree", "skiplist", "art", "cceh"}
	updatableNames = []string{"fiting-inp", "fiting-buf", "pgm", "alex", "xindex", "btree", "skiplist", "art", "cceh"}
	benchValue     = make([]byte, viper.DefaultValueSize)
)

func sizeName(n int) string { return fmt.Sprintf("%dk", n/1000) }

func newIndex(b *testing.B, name string) index.Index {
	b.Helper()
	e, ok := core.Lookup(name)
	if !ok {
		b.Fatalf("unknown index %s", name)
	}
	return e.New()
}

func loadedIndex(b *testing.B, name string, keys []uint64) index.Index {
	b.Helper()
	idx := newIndex(b, name)
	if err := idx.BulkLoad(keys, keys); err != nil {
		b.Fatal(err)
	}
	return idx
}

// openStore opens a store over idx on a simulated Optane region sized
// for records records with twofold slack, and bulk-loads keys.
func openStore(b *testing.B, idx index.Index, keys []uint64, records int) *viper.Store {
	b.Helper()
	region := pmem.NewRegion(records*(viper.DefaultValueSize+32)*2+64<<20, pmem.Optane())
	s := viper.Open(region, idx)
	if err := s.BulkPut(keys, benchValue); err != nil {
		b.Fatal(err)
	}
	return s
}

// once returns build's result, built on the first call only: go test
// runs a row's function once per b.N round, and a row that only reads
// keeps what it built.
func once[T any](build func(b *testing.B) T) func(b *testing.B) T {
	var v T
	built := false
	return func(b *testing.B) T {
		if !built {
			v, built = build(b), true
		}
		return v
	}
}

// inPasses runs op(j) b.N times in passes of j = 0..pass-1, running
// reset off the clock before each pass: a write row rebuilds there, so
// every timed write adds a key its structure does not hold.
func inPasses(b *testing.B, pass int, reset func(b *testing.B), op func(j int)) {
	for i := 0; i < b.N; i++ {
		if i%pass == 0 {
			b.StopTimer()
			reset(b)
			b.StartTimer()
		}
		op(i % pass)
	}
}

// reportTail reports h's p99.9, the tail the paper plots beside
// throughput.
func reportTail(b *testing.B, h *stats.Histogram) {
	b.ReportMetric(float64(h.Percentile(99.9)), "p99.9-ns")
}

func reportLeaves(b *testing.B, leaves []*core.Leaf) {
	m := core.LeafMetrics(leaves)
	b.ReportMetric(float64(m.Segments), "leaves")
	b.ReportMetric(m.AvgErr, "avg-err")
	b.ReportMetric(float64(m.MaxErr), "max-err")
}

// getEach times idx.Get over probes, every one a key idx holds.
func getEach(b *testing.B, idx index.Index, probes []uint64) {
	for i := 0; i < b.N; i++ {
		if _, ok := idx.Get(probes[i%len(probes)]); !ok {
			b.Fatal("missing key")
		}
	}
}

func storeGetEach(b *testing.B, s *viper.Store, probes []uint64) {
	h := stats.NewHistogram()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, ok := s.Get(probes[i%len(probes)]); !ok {
			b.Fatal("missing key")
		}
		h.RecordSince(t0)
	}
	reportTail(b, h)
}

// getRows is Fig 10's table over keys for one index: its Get alone, with
// its depth and structure bytes, and its Get and MultiGet of 16 inside
// the store. The index is built once, by the store's load, and the index
// row reads the store's copy.
func getRows(b *testing.B, name string, keys, probes []uint64) {
	store := once(func(b *testing.B) *viper.Store { return openStore(b, newIndex(b, name), keys, len(keys)) })
	b.Run("index/"+name, func(b *testing.B) {
		ix := store(b).Index()
		b.ResetTimer()
		getEach(b, ix, probes)
		if d, ok := index.DepthOf(ix); ok {
			b.ReportMetric(d, "depth")
		}
		b.ReportMetric(float64(ix.Sizes().Structure)/float64(len(keys)), "structure-B/key")
	})
	b.Run("store/"+name, func(b *testing.B) {
		s := store(b)
		b.Run("get", func(b *testing.B) { storeGetEach(b, s, probes) })
		b.Run("multiget16", func(b *testing.B) {
			h := stats.NewHistogram()
			for i := 0; i < b.N; i++ {
				j := i * 16 % (len(probes) - 16)
				t0 := time.Now()
				for _, v := range s.MultiGet(probes[j : j+16]) {
					if v == nil {
						b.Fatal("missing key")
					}
				}
				h.RecordSince(t0)
			}
			reportTail(b, h)
		})
	})
}

// insertEach times open's index taking Insert of each key in order,
// reopened off the clock whenever order runs out.
func insertEach(b *testing.B, open func(b *testing.B) index.Index, order []uint64) {
	var idx index.Index
	inPasses(b, len(order), func(b *testing.B) { idx = open(b) }, func(j int) {
		if err := idx.Insert(order[j], order[j]); err != nil {
			b.Fatal(err)
		}
	})
}

// putEach is insertEach for a store's Put, with the p99.9.
func putEach(b *testing.B, open func(b *testing.B) *viper.Store, order []uint64) {
	var s *viper.Store
	h := stats.NewHistogram()
	inPasses(b, len(order), func(b *testing.B) { s = open(b) }, func(j int) {
		t0 := time.Now()
		if err := s.Put(order[j], benchValue); err != nil {
			b.Fatal(err)
		}
		h.RecordSince(t0)
	})
	reportTail(b, h)
}

// insertRows is Fig 13's pair of rows for one index: order inserted into
// the bare index and into the store, each loaded with load.
func insertRows(b *testing.B, name string, load, order []uint64) {
	b.Run("index/"+name, func(b *testing.B) {
		insertEach(b, func(b *testing.B) index.Index { return loadedIndex(b, name, load) }, order)
	})
	b.Run("store/"+name, func(b *testing.B) {
		putEach(b, func(b *testing.B) *viper.Store {
			return openStore(b, newIndex(b, name), load, len(load)+len(order))
		}, order)
	})
}

// insertStreams times one pass of Insert over order per b.N round, each
// into a fresh mk() loaded with load off the clock, and reports what
// Fig 18 plots: the pass's retrains, its retraining ns, and the ns per
// insert outside retraining.
func insertStreams(b *testing.B, mk func() index.Index, load, order []uint64) {
	var retrains, retrainNs int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		idx := mk()
		if err := idx.BulkLoad(load, load); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, k := range order {
			if err := idx.Insert(k, k); err != nil {
				b.Fatal(err)
			}
		}
		var ns int64
		retrains, ns, _ = index.RetrainStatsOf(idx)
		retrainNs += ns
	}
	b.ReportMetric(float64(retrains), "retrains")
	b.ReportMetric(float64(retrainNs)/float64(b.N), "retrain-ns")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds()-retrainNs)/float64(b.N*len(order)), "insert-ns")
}

// parallelEach runs op over keys from RunParallel's GOMAXPROCS
// goroutines (-cpu sets the sweep). Goroutine g takes keys g, g+p,
// g+2p, ..., so a stream is split as the paper's threads split it.
func parallelEach(b *testing.B, keys []uint64, op func(k uint64) error) {
	p := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for i := int(next.Add(1)) - 1; pb.Next(); i += p {
			if err := op(keys[i%len(keys)]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

var errMissing = errors.New("missing key")

// BenchmarkTable1Registry is Table I: the cost of constructing each
// registry index, and each learned index's row of pieces, logged once.
func BenchmarkTable1Registry(b *testing.B) {
	for _, e := range core.Registry() {
		logged := !e.Learned
		b.Run(e.Name, func(b *testing.B) {
			if !logged {
				b.Logf("inner node: %s | leaf node: %s | error: %s | approximation: %s | insertion: %s | retraining: %s | concurrent writes: %v",
					e.InnerNode, e.LeafNode, e.Error, e.Approximation, e.Insertion, e.Retraining, index.CapsOf(e.New()).ConcurrentWrites)
				logged = true
			}
			for i := 0; i < b.N; i++ {
				if e.New() == nil {
					b.Fatal("nil index")
				}
			}
		})
	}
}

// BenchmarkTable2Build is Table II: the bulk build whose output is the
// average depth.
func BenchmarkTable2Build(b *testing.B) {
	for _, kind := range benchDatasets {
		b.Run(kind.String(), func(b *testing.B) {
			keys := dataset.Generate(kind, benchN, benchSeed)
			for _, name := range []string{"rmi", "fiting-buf", "pgm", "alex", "xindex"} {
				b.Run(name, func(b *testing.B) {
					var idx index.Index
					for i := 0; i < b.N; i++ {
						idx = loadedIndex(b, name, keys)
					}
					depth, _ := index.DepthOf(idx)
					b.ReportMetric(depth, "depth")
				})
			}
		})
	}
}

// BenchmarkFig10ReadOnly is Fig 10: single-threaded read-only Gets on
// YCSB and OSM across the size sweep.
func BenchmarkFig10ReadOnly(b *testing.B) {
	for _, kind := range benchDatasets {
		for _, size := range benchSizes() {
			b.Run(kind.String()+"/"+sizeName(size), func(b *testing.B) {
				keys := dataset.Generate(kind, size, benchSeed)
				probes := dataset.Shuffled(keys, benchSeed+1)
				for _, name := range endToEndNames {
					getRows(b, name, keys, probes)
				}
			})
		}
	}
}

// BenchmarkFig11Face is Fig 11: Fig 10's rows on FACE-like keys, where
// RS's radix table stops narrowing.
func BenchmarkFig11Face(b *testing.B) {
	keys := dataset.Generate(dataset.FACELike, benchN, benchSeed)
	probes := dataset.Shuffled(keys, benchSeed+1)
	for _, name := range endToEndNames {
		getRows(b, name, keys, probes)
	}
}

// BenchmarkFig12ParallelRead is Fig 12: concurrent Gets, one goroutine
// per -cpu.
func BenchmarkFig12ParallelRead(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, benchN, benchSeed)
	probes := dataset.Shuffled(keys, benchSeed+1)
	for _, name := range endToEndNames {
		idx := once(func(b *testing.B) index.Index { return loadedIndex(b, name, keys) })
		b.Run("index/"+name, func(b *testing.B) {
			ix := idx(b)
			b.ResetTimer()
			parallelEach(b, probes, func(k uint64) error {
				if _, ok := ix.Get(k); !ok {
					return errMissing
				}
				return nil
			})
		})
		store := once(func(b *testing.B) *viper.Store { return openStore(b, newIndex(b, name), keys, len(keys)) })
		b.Run("store/"+name, func(b *testing.B) {
			s, h := store(b), stats.NewHistogram()
			b.ResetTimer()
			parallelEach(b, probes, func(k uint64) error {
				t0 := time.Now()
				_, ok := s.Get(k)
				h.RecordSince(t0)
				if !ok {
					return errMissing
				}
				return nil
			})
			reportTail(b, h)
		})
	}
}

// BenchmarkFig13WriteOnly is Fig 13: single-threaded inserts across the
// size sweep, into indexes loaded with the other half of the keys.
func BenchmarkFig13WriteOnly(b *testing.B) {
	for _, kind := range benchDatasets {
		for _, size := range benchSizes() {
			b.Run(kind.String()+"/"+sizeName(size), func(b *testing.B) {
				load, inserts := dataset.Split(dataset.Generate(kind, size, benchSeed), size*9/10)
				order := dataset.Shuffled(inserts, benchSeed+2)
				for _, name := range updatableNames {
					insertRows(b, name, load, order)
				}
			})
		}
	}
}

// BenchmarkFig14ConcurrentWrite is Fig 14: concurrent inserts, one
// goroutine per -cpu, into the indexes that take concurrent writers.
// Past the insert stream a row rewrites the keys it inserted.
func BenchmarkFig14ConcurrentWrite(b *testing.B) {
	load, inserts := dataset.Split(dataset.Generate(dataset.YCSBNormal, benchN, benchSeed), benchN/2)
	order := dataset.Shuffled(inserts, benchSeed+3)
	for _, name := range []string{"xindex", "finedex", "cceh"} {
		b.Run("index/"+name, func(b *testing.B) {
			idx := loadedIndex(b, name, load)
			b.ResetTimer()
			parallelEach(b, order, func(k uint64) error { return idx.Insert(k, k) })
		})
		b.Run("store/"+name, func(b *testing.B) {
			s, h := openStore(b, newIndex(b, name), load, len(load)+b.N), stats.NewHistogram()
			b.ResetTimer()
			parallelEach(b, order, func(k uint64) error {
				t0 := time.Now()
				err := s.Put(k, benchValue)
				h.RecordSince(t0)
				return err
			})
			reportTail(b, h)
		})
	}
}

// BenchmarkFig15Mixed is Fig 15: the YCSB A, B, D and F op streams over
// the updatable indexes.
func BenchmarkFig15Mixed(b *testing.B) {
	load, inserts := dataset.Split(dataset.Generate(dataset.YCSBNormal, benchN*3/2, benchSeed), benchN/2)
	for _, mix := range workload.Mixes() {
		b.Run(mix.Name, func(b *testing.B) {
			for _, name := range updatableNames {
				b.Run("index/"+name, func(b *testing.B) {
					idx := loadedIndex(b, name, load)
					gen := workload.NewGenerator(mix, load, inserts, benchSeed+4)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						op := gen.Next()
						if op.Kind == workload.OpRead || op.Kind == workload.OpRMW {
							idx.Get(op.Key)
						}
						if op.Kind != workload.OpRead {
							if err := idx.Insert(op.Key, op.Key); err != nil {
								b.Fatal(err)
							}
						}
					}
				})
				b.Run("store/"+name, func(b *testing.B) {
					s := openStore(b, newIndex(b, name), load, len(load)+len(inserts)+b.N)
					gen, h := workload.NewGenerator(mix, load, inserts, benchSeed+4), stats.NewHistogram()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						op := gen.Next()
						t0 := time.Now()
						if op.Kind == workload.OpRead || op.Kind == workload.OpRMW {
							s.Get(op.Key)
						}
						if op.Kind != workload.OpRead {
							if err := s.Put(op.Key, benchValue); err != nil {
								b.Fatal(err)
							}
						}
						h.RecordSince(t0)
					}
					reportTail(b, h)
				})
			}
		})
	}
}

// BenchmarkTable3Sizes is Table III: the store's three footprints per
// key (index structure, +keys, +keys and values) for every §III index.
func BenchmarkTable3Sizes(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, benchN, benchSeed)
	for _, name := range endToEndNames {
		store := once(func(b *testing.B) *viper.Store { return openStore(b, newIndex(b, name), keys, len(keys)) })
		b.Run("store/"+name, func(b *testing.B) {
			s := store(b)
			b.ResetTimer()
			var structure, withKeys, withKV int64
			for i := 0; i < b.N; i++ {
				structure, withKeys, withKV = s.Sizes()
			}
			n := float64(len(keys))
			b.ReportMetric(float64(structure)/n, "structure-B/key")
			b.ReportMetric(float64(withKeys)/n, "key-B/key")
			b.ReportMetric(float64(withKV)/n, "kv-B/key")
		})
	}
}

// BenchmarkFig16Recovery is Fig 16: rebuilding each index from sorted
// keys (index/), and a store's whole recovery (store/): a store opened
// over the region, which finds its pages by their stamps, scans them and
// bulk-loads the index, as apex.Recover(region) reopens APEX
// (BenchmarkExtensionAPEX). Across the size sweep. CCEH is unsorted and
// needs no sorted rebuild.
func BenchmarkFig16Recovery(b *testing.B) {
	for _, size := range benchSizes() {
		b.Run(sizeName(size), func(b *testing.B) {
			keys := dataset.Generate(dataset.YCSBNormal, size, benchSeed)
			offs := make([]uint64, len(keys))
			for i := range offs {
				offs[i] = uint64(i)
			}
			base := once(func(b *testing.B) *viper.Store { return openStore(b, newIndex(b, "btree"), keys, len(keys)) })
			for _, name := range endToEndNames {
				if name == "cceh" {
					continue
				}
				b.Run("index/"+name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if err := newIndex(b, name).BulkLoad(keys, offs); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run("store/"+name, func(b *testing.B) {
					region := base(b).Region()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						viper.Open(region, newIndex(b, name))
					}
				})
			}
		})
	}
}

// approxSweep spans each approximation algorithm over its tunable: the
// error and leaf-count frontier of Fig 17(a/b).
func approxSweep() []core.Approximator {
	var out []core.Approximator
	for _, seg := range []int{64, 128, 256, 512, 1024, 2048} {
		out = append(out, core.LSA{SegLen: seg})
	}
	for _, eps := range []int{4, 8, 16, 32, 64, 128} {
		out = append(out, core.OptPLA{Eps: eps})
	}
	for _, seg := range []int{64, 128, 256, 512, 1024, 2048} {
		out = append(out, core.LSAGap{SegLen: seg})
	}
	return out
}

func sweepName(a core.Approximator) string {
	switch a := a.(type) {
	case core.LSA:
		return fmt.Sprintf("lsa/seg=%d", a.SegLen)
	case core.OptPLA:
		return fmt.Sprintf("opt-pla/eps=%d", a.Eps)
	case core.LSAGap:
		return fmt.Sprintf("lsa-gap/seg=%d", a.SegLen)
	}
	return a.Name()
}

// locateLeaves returns, per probe, the leaf a B+tree over the leaves'
// first keys routes it to.
func locateLeaves(leaves []*core.Leaf, probes []uint64) []*core.Leaf {
	firsts := make([]uint64, len(leaves))
	for i, l := range leaves {
		firsts[i] = l.FirstKey
	}
	s := core.NewBTreeTop()
	s.Build(firsts)
	out := make([]*core.Leaf, len(probes))
	for i, k := range probes {
		out[i] = leaves[s.Locate(k)]
	}
	return out
}

// BenchmarkFig17aLeafSearch is Fig 17(a): the in-leaf search (model
// prediction plus local search, leaves located off the clock) against
// each configuration's leaf count and error.
func BenchmarkFig17aLeafSearch(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, benchN, benchSeed)
	probes := dataset.Shuffled(keys, benchSeed+1)
	for _, a := range approxSweep() {
		b.Run(sweepName(a), func(b *testing.B) {
			leaves := a.Build(keys, keys)
			located := locateLeaves(leaves, probes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(probes)
				if _, ok := located[j].Find(probes[j]); !ok {
					b.Fatal("missing key")
				}
			}
			reportLeaves(b, leaves)
		})
	}
}

// BenchmarkFig17bSegmentation is Fig 17(b): segmenting YCSB and OSM
// keys, whose output is the error and leaf-count frontier.
func BenchmarkFig17bSegmentation(b *testing.B) {
	for _, kind := range benchDatasets {
		b.Run(kind.String(), func(b *testing.B) {
			keys := dataset.Generate(kind, benchN, benchSeed)
			for _, a := range approxSweep() {
				b.Run(sweepName(a), func(b *testing.B) {
					var leaves []*core.Leaf
					for i := 0; i < b.N; i++ {
						leaves = a.Build(keys, nil)
					}
					reportLeaves(b, leaves)
				})
			}
		})
	}
}

// BenchmarkFig17cStructures is Fig 17(c): Locate per structure as the
// leaf count grows.
func BenchmarkFig17cStructures(b *testing.B) {
	for _, leaves := range []int{benchN / 200, benchN / 20, benchN / 2, 2 * benchN} {
		b.Run(fmt.Sprintf("leaves=%d", leaves), func(b *testing.B) {
			firsts := dataset.Generate(dataset.YCSBNormal, leaves, benchSeed)
			probes := dataset.Shuffled(firsts, benchSeed+1)
			for _, s := range core.Structures() {
				b.Run(s.Name(), func(b *testing.B) {
					s.Build(firsts)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						s.Locate(probes[i%len(probes)])
					}
					b.ReportMetric(s.Depth(), "depth")
				})
			}
		})
	}
}

// BenchmarkFig17dCombos is Fig 17(d): a lookup through each real index's
// (structure, algorithm) pairing, split into structure-ns (locate the
// leaf) and leaf-ns (search it).
func BenchmarkFig17dCombos(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, benchN, benchSeed)
	probes := dataset.Shuffled(keys, benchSeed+1)
	for _, c := range []struct {
		name      string
		structure func() core.Structure
		approx    core.Approximator
	}{
		{"btree+opt-pla", func() core.Structure { return core.NewBTreeTop() }, core.OptPLA{Eps: 32}},
		{"lrs+opt-pla", func() core.Structure { return pla.NewLRS(8) }, core.OptPLA{Eps: 32}},
		{"rmi+lsa", func() core.Structure { return pla.NewRMI(0) }, core.LSA{SegLen: 256}},
		{"ats+lsa-gap", func() core.Structure { return core.NewATS(16, 64) }, core.LSAGap{SegLen: 256}},
	} {
		b.Run(c.name, func(b *testing.B) {
			leaves := c.approx.Build(keys, keys)
			firsts := make([]uint64, len(leaves))
			for i, l := range leaves {
				firsts[i] = l.FirstKey
			}
			s := c.structure()
			s.Build(firsts)
			located := make([]*core.Leaf, len(probes))
			var structureNs, leafNs time.Duration
			b.ResetTimer()
			for done := 0; done < b.N; {
				n := min(len(probes), b.N-done)
				t0 := time.Now()
				for i, k := range probes[:n] {
					located[i] = leaves[s.Locate(k)]
				}
				t1 := time.Now()
				for i, k := range probes[:n] {
					located[i].Find(k)
				}
				structureNs += t1.Sub(t0)
				leafNs += time.Since(t1)
				done += n
			}
			b.ReportMetric(float64(len(leaves)), "leaves")
			b.ReportMetric(float64(structureNs)/float64(b.N), "structure-ns")
			b.ReportMetric(float64(leafNs)/float64(b.N), "leaf-ns")
		})
	}
}

// fig18Keys is Fig 18(b–d)'s data: half of YCSB bulk-loaded, the other
// half inserted in random order.
func fig18Keys() (load, order []uint64) {
	load, inserts := dataset.Split(dataset.Generate(dataset.YCSBNormal, benchN, benchSeed), benchN/2)
	return load, dataset.Shuffled(inserts, benchSeed+2)
}

// BenchmarkFig18aInsertStrategies is Fig 18(a): a quarter of YCSB
// inserted through each strategy as the reserved space grows (alex-gap
// sizes its own).
func BenchmarkFig18aInsertStrategies(b *testing.B) {
	load, inserts := dataset.Split(dataset.Generate(dataset.YCSBNormal, benchN, benchSeed), benchN/4)
	order := dataset.Shuffled(inserts, benchSeed+2)
	for _, reserve := range []int{128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("inplace/reserve=%d", reserve), func(b *testing.B) {
			insertStreams(b, func() index.Index {
				return core.Compose(core.OptPLA{Eps: 32}, core.NewBTreeTop(), core.Inplace{Reserve: reserve}, core.RetrainNode{})
			}, load, order)
		})
		b.Run(fmt.Sprintf("buffer/reserve=%d", reserve), func(b *testing.B) {
			insertStreams(b, func() index.Index {
				return core.Compose(core.OptPLA{Eps: 32}, core.NewBTreeTop(), core.BufferInsert{Size: reserve}, core.RetrainNode{})
			}, load, order)
		})
	}
	b.Run("alex-gap", func(b *testing.B) {
		insertStreams(b, func() index.Index {
			return core.Compose(core.LSAGap{SegLen: 256}, core.NewBTreeTop(), core.GapInsert{}, core.ExpandOrSplit{MaxLeafKeys: 4096})
		}, load, order)
	})
}

// BenchmarkFig18bRetraining is Fig 18(b): how often the real indexes
// retrain, and for how long, as inserts accumulate.
func BenchmarkFig18bRetraining(b *testing.B) {
	load, order := fig18Keys()
	for _, name := range []string{"fiting-buf", "pgm", "alex"} {
		for q := 1; q <= 4; q++ {
			n := q * len(order) / 4
			b.Run(fmt.Sprintf("%s/inserted=%d", name, n), func(b *testing.B) {
				insertStreams(b, func() index.Index { return newIndex(b, name) }, load, order[:n])
			})
		}
	}
}

// BenchmarkFig18cBufferSize is Fig 18(c): a larger buffer retrains less
// often, each retrain longer.
func BenchmarkFig18cBufferSize(b *testing.B) {
	load, order := fig18Keys()
	for _, size := range []int{128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("buffer=%d", size), func(b *testing.B) {
			insertStreams(b, func() index.Index {
				return core.Compose(core.OptPLA{Eps: 32}, core.NewBTreeTop(), core.BufferInsert{Size: size}, core.RetrainNode{})
			}, load, order)
		})
	}
}

// BenchmarkFig18dUpdateCost is Fig 18(d): the whole insert stream per
// update strategy, retraining included.
func BenchmarkFig18dUpdateCost(b *testing.B) {
	load, order := fig18Keys()
	for _, name := range []string{"fiting-inp", "fiting-buf", "pgm", "alex"} {
		b.Run(name, func(b *testing.B) {
			insertStreams(b, func() index.Index { return newIndex(b, name) }, load, order)
		})
	}
}

// BenchmarkScanAppendix is the appendix's range queries, extended to
// every ordered index: Ranges of 10 and 100 from random starts through
// a store whose shuffled half was rewritten, so record placement no
// longer follows key order.
func BenchmarkScanAppendix(b *testing.B) {
	for _, kind := range benchDatasets {
		b.Run(kind.String(), func(b *testing.B) {
			keys := dataset.Generate(kind, benchN, benchSeed)
			for _, name := range []string{"rmi-delta", "rs-delta", "fiting-buf", "pgm", "alex", "xindex", "lipp", "finedex", "btree", "skiplist", "art"} {
				b.Run("store/"+name, func(b *testing.B) {
					s := openStore(b, newIndex(b, name), keys, len(keys))
					for _, k := range dataset.Shuffled(keys, benchSeed+9)[:len(keys)/2] {
						if err := s.Put(k, benchValue); err != nil {
							b.Fatal(err)
						}
					}
					s.DrainRetrains()
					for _, scanLen := range []int{10, 100} {
						b.Run(fmt.Sprintf("len=%d", scanLen), func(b *testing.B) {
							starts := dataset.Shuffled(keys, benchSeed+int64(scanLen))
							entries, h := 0, stats.NewHistogram()
							count := func(uint64, []byte) bool { entries++; return true }
							for i := 0; i < b.N; i++ {
								t0 := time.Now()
								if err := s.Range(starts[i%len(starts)], scanLen, count); err != nil {
									b.Fatal(err)
								}
								h.RecordSince(t0)
							}
							reportTail(b, h)
							b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(entries), "ns/entry")
						})
					}
				})
			}
		})
	}
}

// BenchmarkColdGet is the index share of a store Get past the caches:
// bare Gets over 750k loaded OSM-like keys (the benchmark's data set),
// each probe's key chosen by the previous answer, so one Get's misses
// cannot overlap the next one's and every lookup pays its own descent,
// as a Get served one at a time does. art and skiplist search no
// window and fetch no value line apart from their keys; they are the
// controls.
func BenchmarkColdGet(b *testing.B) {
	keys := dataset.Generate(dataset.OSMLike, 750_000, 1)
	probes := dataset.Shuffled(keys, 2)
	n := uint64(len(probes))
	for _, name := range []string{"alex", "pgm", "btree", "rmi", "rs", "fiting-buf", "art", "skiplist"} {
		idx := once(func(b *testing.B) index.Index { return loadedIndex(b, name, keys) })
		b.Run(name, func(b *testing.B) {
			ix := idx(b)
			b.ReportAllocs()
			b.ResetTimer()
			var v uint64
			for i := 0; i < b.N; i++ {
				var ok bool
				if v, ok = ix.Get(probes[(v+uint64(i))%n]); !ok {
					b.Fatal("missing key")
				}
			}
		})
	}
}

// BenchmarkCursorOpen is the index share of a short scan, for every
// registered index with a cursor: open at a start drawn uniformly from
// 750k loaded OSM-like keys (the benchmark's data set) and pull 50.
// "loaded" is the index as bulk-loaded; "rewritten" then overwrites half
// the loaded keys in random order, as the benchmark's scan-insert
// workload does, so a layered index (pgm's logarithmic runs, the delta
// buffers) merges all its layers. A read-only index has no rewritten
// shape.
func BenchmarkCursorOpen(b *testing.B) {
	keys := dataset.Generate(dataset.OSMLike, 750_000, 1)
	starts := dataset.Shuffled(keys, 2)
	rewrites := dataset.Shuffled(keys, 3)[:len(keys)/2]
	ks, vs := make([]uint64, 50), make([]uint64, 50)
	for _, shape := range []string{"loaded", "rewritten"} {
		b.Run(shape, func(b *testing.B) {
			for _, e := range core.Registry() {
				if !index.CapsOf(e.New()).Range {
					continue
				}
				if _, err := e.New().InsertReplace(0, 0); shape == "rewritten" && err == index.ErrReadOnly {
					continue
				}
				idx := once(func(b *testing.B) index.Index {
					idx := loadedIndex(b, e.Name, keys)
					for _, k := range rewrites {
						if shape == "loaded" {
							break
						}
						if _, err := idx.InsertReplace(k, k+1); err != nil {
							b.Fatal(err)
						}
					}
					return idx
				})
				b.Run(e.Name, func(b *testing.B) {
					r := index.Seams(idx(b)).Range
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						cur := r.Range(starts[i%len(starts)])
						cur.Next(ks, vs)
						cur.Close()
					}
				})
			}
		})
	}
}

// BenchmarkUpsert is the index share of a Put, as a table: every
// writable registry index x {a key it holds, a key it does not} x two
// sizes of the benchmark's OSM-like data set, the larger past the caches.
// "new" draws from a held-out quarter and reloads the index, off the
// clock, whenever that runs out. With -benchmem: alex allocates nothing
// on either path.
func BenchmarkUpsert(b *testing.B) {
	for _, n := range []int{50_000, 750_000} {
		type data struct{ load, hot, held []uint64 }
		sets := once(func(*testing.B) data {
			load, held := dataset.Split(dataset.Generate(dataset.OSMLike, n+n/4, 1), n/4)
			return data{load, dataset.Shuffled(load, 2), dataset.Shuffled(held, 3)}
		})
		for _, e := range core.Registry() {
			if _, err := e.New().InsertReplace(0, 0); err == index.ErrReadOnly {
				continue
			}
			b.Run(fmt.Sprintf("%s/existing/%dk", e.Name, n/1000), func(b *testing.B) {
				d := sets(b)
				idx := loadedIndex(b, e.Name, d.load)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if existed, err := idx.InsertReplace(d.hot[i%len(d.hot)], uint64(i)); err != nil || !existed {
						b.Fatalf("InsertReplace(loaded key) = %v,%v", existed, err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/new/%dk", e.Name, n/1000), func(b *testing.B) {
				d := sets(b)
				var idx index.Index
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					j := i % len(d.held)
					if j == 0 {
						b.StopTimer()
						idx = loadedIndex(b, e.Name, d.load)
						b.StartTimer()
					}
					if existed, err := idx.InsertReplace(d.held[j], uint64(i)); err != nil || existed {
						b.Fatalf("InsertReplace(held-out key) = %v,%v", existed, err)
					}
				}
			})
		}
	}
}

// --- Ablations (DESIGN.md) ---

// BenchmarkAblationGaps compares gapped vs packed leaf search at equal
// model quality: the cost/benefit of ALEX's extra space.
func BenchmarkAblationGaps(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, 65536, 1)
	probes := dataset.Shuffled(keys, 2)
	for _, c := range []struct {
		name string
		a    core.Approximator
	}{{"packed", core.LSA{SegLen: 256}}, {"gapped", core.LSAGap{SegLen: 256}}} {
		b.Run(c.name, func(b *testing.B) {
			located := locateLeaves(c.a.Build(keys, keys), probes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(probes)
				located[j].Find(probes[j])
			}
		})
	}
}

// BenchmarkAblationLeafSearch compares the final-mile search inside the
// model's error window against plain binary search over the whole array.
func BenchmarkAblationLeafSearch(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, 65536, 1)
	probes := dataset.Shuffled(keys, 2)
	b.Run("bounded-binary", func(b *testing.B) {
		segs := pla.BuildOptPLA(keys, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := probes[i%len(probes)]
			s := pla.FindSegment(segs, k)
			p := s.Predict(k)
			lo, hi := max(p-s.MaxErr, 0), min(p+s.MaxErr+1, len(keys))
			w := keys[lo:hi]
			j := sort.Search(len(w), func(x int) bool { return w[x] >= k })
			if lo+j >= len(keys) || keys[lo+j] != k {
				b.Fatal("missing")
			}
		}
	})
	b.Run("full-binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := probes[i%len(probes)]
			j := sort.Search(len(keys), func(x int) bool { return keys[x] >= k })
			if keys[j] != k {
				b.Fatal("missing")
			}
		}
	})
}

// BenchmarkAblationRadixBits sweeps RS's radix width on uniform vs
// FACE-like keys (the Fig 11 mechanism, isolated).
func BenchmarkAblationRadixBits(b *testing.B) {
	for _, kind := range []dataset.Kind{dataset.YCSBUniform, dataset.FACELike} {
		b.Run(kind.String(), func(b *testing.B) {
			keys := dataset.Generate(kind, benchN, 1)
			probes := dataset.Shuffled(keys, 2)
			for _, bits := range []int{8, 12, 16, 18} {
				b.Run(fmt.Sprintf("r=%d", bits), func(b *testing.B) {
					ix := flat.NewRS(flat.RSConfig{RadixBits: bits, MaxError: 32})
					if err := ix.BulkLoad(keys, keys); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						ix.Get(probes[i%len(probes)])
					}
				})
			}
		})
	}
}

// BenchmarkAblationEpsilon sweeps PGM's error bound: fewer segments vs
// wider final search.
func BenchmarkAblationEpsilon(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, benchN, 1)
	probes := dataset.Shuffled(keys, 2)
	for _, eps := range []int{8, 32, 128, 512} {
		b.Run(fmt.Sprintf("eps=%d", eps), func(b *testing.B) {
			ix := pgm.New(pgm.Config{Eps: eps, EpsInternal: 8})
			if err := ix.BulkLoad(keys, keys); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Get(probes[i%len(probes)])
			}
		})
	}
}

// BenchmarkAblationPMemLatency runs the same end-to-end Get with the
// NVM latency model on and off — the paper's "is the bottleneck the NVM
// or the index?" question.
func BenchmarkAblationPMemLatency(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, benchN, 1)
	probes := dataset.Shuffled(keys, 2)
	for _, lat := range []struct {
		name  string
		model pmem.LatencyModel
	}{{"dram", pmem.None()}, {"pmem", pmem.Optane()}} {
		store := once(func(b *testing.B) *viper.Store {
			s := viper.Open(pmem.NewRegion(256<<20, lat.model), newIndex(b, "alex"))
			if err := s.BulkPut(keys, benchValue); err != nil {
				b.Fatal(err)
			}
			return s
		})
		b.Run(lat.name, func(b *testing.B) {
			s := store(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Get(probes[i%len(probes)]); !ok {
					b.Fatal("missing")
				}
			}
		})
	}
}

// --- Extensions (§V) ---

// BenchmarkExtensionLIPP is the LIPP-style index (the §V-B1 design the
// paper could not evaluate) against the stock designs: Fig 10's read
// rows over YCSB, and Fig 13's insert rows into a store holding three
// quarters of it.
func BenchmarkExtensionLIPP(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, benchN, benchSeed)
	probes := dataset.Shuffled(keys, benchSeed+1)
	load, inserts := dataset.Split(keys, benchN/4)
	order := dataset.Shuffled(inserts, benchSeed+2)
	names := []string{"alex", "pgm", "xindex", "lipp", "finedex", "btree"}
	b.Run("get", func(b *testing.B) {
		for _, name := range names {
			getRows(b, name, keys, probes)
		}
	})
	b.Run("insert", func(b *testing.B) {
		for _, name := range names {
			insertRows(b, name, load, order)
		}
	})
}

// BenchmarkExtensionAPEX is the APEX-style persistent learned index
// against the paper's Viper+ALEX on the same simulated PMem: Get,
// insert, and recovery, which APEX does from node headers while the
// volatile index rescans every record (Fig 16).
func BenchmarkExtensionAPEX(b *testing.B) {
	for _, size := range benchSizes() {
		b.Run(sizeName(size), func(b *testing.B) {
			load, inserts := dataset.Split(dataset.Generate(dataset.YCSBNormal, size, benchSeed), size/4)
			order := dataset.Shuffled(inserts, benchSeed+2)
			probes := dataset.Shuffled(load, benchSeed+1)
			b.Run("store/alex", func(b *testing.B) {
				s := openStore(b, newIndex(b, "alex"), load, len(load))
				b.Run("get", func(b *testing.B) { storeGetEach(b, s, probes) })
				b.Run("insert", func(b *testing.B) {
					putEach(b, func(b *testing.B) *viper.Store {
						return openStore(b, newIndex(b, "alex"), load, len(load)+len(order))
					}, order)
				})
				b.Run("recover", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						viper.Open(s.Region(), newIndex(b, "alex"))
					}
				})
			})
			open := func(b *testing.B) (*pmem.Region, *apex.Index) {
				region := pmem.NewRegion(size*64+64<<20, pmem.Optane())
				ax, err := apex.Create(region, apex.Config{LogCap: size})
				if err == nil {
					err = ax.BulkLoad(load, load)
				}
				if err != nil {
					b.Fatal(err)
				}
				return region, ax
			}
			b.Run("apex", func(b *testing.B) {
				region, ax := open(b)
				b.Run("get", func(b *testing.B) { getEach(b, ax, probes) })
				b.Run("insert", func(b *testing.B) {
					insertEach(b, func(b *testing.B) index.Index { _, ax := open(b); return ax }, order)
				})
				b.Run("recover", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := apex.Recover(region); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		})
	}
}

// BenchmarkExtensionCross answers §IV-C's open question ("we do not know
// whether RMI will perform better than ATS after changing the
// approximation algorithm"): Get through every structure x algorithm
// pairing, each a working composed index over the same keys.
func BenchmarkExtensionCross(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, benchN, benchSeed)
	probes := dataset.Shuffled(keys, benchSeed+1)
	for i, s := range core.Structures() {
		for _, a := range []core.Approximator{core.LSA{SegLen: 256}, core.OptPLA{Eps: 32}, core.Greedy{Eps: 32}, core.LSAGap{SegLen: 256}} {
			b.Run(s.Name()+"/"+a.Name(), func(b *testing.B) {
				c := core.Compose(a, core.Structures()[i], core.BufferInsert{}, core.RetrainNode{})
				if err := c.BulkLoad(keys, keys); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				getEach(b, c, probes)
			})
		}
	}
}

// BenchmarkExtensionHotATS measures the §V-B1 hot-data-aware structure
// against the plain ATS under Zipfian probes.
func BenchmarkExtensionHotATS(b *testing.B) {
	firsts := dataset.Generate(dataset.YCSBNormal, 200_000, 1)
	// Zipfian access pattern over the leaves.
	gen := workload.NewGenerator(workload.YCSBC, firsts, nil, 5)
	probes := make([]uint64, 200_000)
	weights := make([]float64, len(firsts))
	pos := make(map[uint64]int, len(firsts))
	for i, f := range firsts {
		pos[f] = i
	}
	for i := range probes {
		op := gen.Next()
		probes[i] = op.Key
		weights[pos[op.Key]]++
	}
	for i := range weights {
		weights[i]++
	}
	b.Run("ats", func(b *testing.B) {
		plain := core.NewATS(16, 64)
		plain.Build(firsts)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plain.Locate(probes[i%len(probes)])
		}
	})
	b.Run("hot-ats", func(b *testing.B) {
		hot := core.NewHotATS(16, 64)
		hot.SetWeights(weights)
		hot.Build(firsts)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hot.Locate(probes[i%len(probes)])
		}
	})
}

// BenchmarkExtensionAppendStrategy measures the §V-B2 hybrid append
// strategy against buffer and gap insertion on a sequential stream.
func BenchmarkExtensionAppendStrategy(b *testing.B) {
	seq := dataset.Generate(dataset.Sequential, benchN, 0)
	load := seq[:benchN/10]
	for _, c := range []struct {
		name string
		mk   func() *core.Composed
	}{
		{"append-hybrid", func() *core.Composed {
			return core.Compose(core.OptPLA{Eps: 32}, core.NewBTreeTop(), core.AppendInsert{}, core.RetrainNode{})
		}},
		{"buffer", func() *core.Composed {
			return core.Compose(core.OptPLA{Eps: 32}, core.NewBTreeTop(), core.BufferInsert{}, core.RetrainNode{})
		}},
		{"alex-gap", func() *core.Composed {
			return core.Compose(core.LSAGap{SegLen: 256}, core.NewBTreeTop(), core.GapInsert{}, core.ExpandOrSplit{})
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			idx := c.mk()
			if err := idx.BulkLoad(load, load); err != nil {
				b.Fatal(err)
			}
			next := seq[len(load)-1]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next++
				if err := idx.Insert(next, next); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
