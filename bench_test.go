// Benchmarks: one testing.B entry point per table/figure of the paper,
// measuring the operation that figure plots, plus the ablation benches
// DESIGN.md calls out. `go test -bench=. -benchmem` regenerates the
// whole set; cmd/libench prints the full tables instead.
package learnedpieces_test

import (
	"fmt"
	"io"
	"sort"
	"testing"

	"learnedpieces/internal/bench"
	"learnedpieces/internal/core"
	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/learned/flat"
	"learnedpieces/internal/learned/pgm"
	"learnedpieces/internal/pla"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/viper"
	"learnedpieces/internal/workload"
)

const benchN = 200_000

func loadedIndex(b *testing.B, name string, keys []uint64) index.Index {
	b.Helper()
	e, ok := core.Lookup(name)
	if !ok {
		b.Fatalf("unknown index %s", name)
	}
	idx := e.New()
	if err := idx.BulkLoad(keys, keys); err != nil {
		b.Fatal(err)
	}
	return idx
}

// BenchmarkTable1 covers Table I: registry construction of every index.
func BenchmarkTable1Registry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, e := range core.Registry() {
			if e.New() == nil {
				b.Fatal("nil index")
			}
		}
	}
}

// BenchmarkTable2 covers Table II: bulk build (whose output is the depth).
func BenchmarkTable2Build(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, benchN, 1)
	for _, name := range []string{"rmi", "fiting-buf", "pgm", "alex", "xindex"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				loadedIndex(b, name, keys)
			}
		})
	}
}

// BenchmarkFig10 covers Fig 10: read-only Get per index (YCSB keys).
func BenchmarkFig10ReadOnly(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, benchN, 1)
	probes := dataset.Shuffled(keys, 2)
	for _, name := range []string{"rmi", "rs", "fiting-buf", "pgm", "alex", "xindex", "btree", "skiplist", "art", "cceh"} {
		idx := loadedIndex(b, name, keys)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := idx.Get(probes[i%len(probes)]); !ok {
					b.Fatal("missing key")
				}
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
		idx := loadedIndex(b, name, keys)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var v uint64
			for i := 0; i < b.N; i++ {
				var ok bool
				if v, ok = idx.Get(probes[(v+uint64(i))%n]); !ok {
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
		registry:
			for _, e := range core.Registry() {
				if !index.CapsOf(e.New()).Range {
					continue
				}
				idx := loadedIndex(b, e.Name, keys)
				if shape == "rewritten" {
					for _, k := range rewrites {
						if _, err := idx.InsertReplace(k, k+1); err == index.ErrReadOnly {
							continue registry
						} else if err != nil {
							b.Fatal(err)
						}
					}
				}
				r := index.Seams(idx).Range
				b.Run(e.Name, func(b *testing.B) {
					b.ReportAllocs()
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
		load, held := dataset.Split(dataset.Generate(dataset.OSMLike, n+n/4, 1), n/4)
		hot, held := dataset.Shuffled(load, 2), dataset.Shuffled(held, 3)
		for _, e := range core.Registry() {
			if _, err := e.New().InsertReplace(0, 0); err == index.ErrReadOnly {
				continue
			}
			b.Run(fmt.Sprintf("%s/existing/%dk", e.Name, n/1000), func(b *testing.B) {
				idx := loadedIndex(b, e.Name, load)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if existed, err := idx.InsertReplace(hot[i%len(hot)], uint64(i)); err != nil || !existed {
						b.Fatalf("InsertReplace(loaded key) = %v,%v", existed, err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/new/%dk", e.Name, n/1000), func(b *testing.B) {
				var idx index.Index
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					j := i % len(held)
					if j == 0 {
						b.StopTimer()
						idx = loadedIndex(b, e.Name, load)
						b.StartTimer()
					}
					if existed, err := idx.InsertReplace(held[j], uint64(i)); err != nil || existed {
						b.Fatalf("InsertReplace(held-out key) = %v,%v", existed, err)
					}
				}
			})
		}
	}
}

// BenchmarkFig11 covers Fig 11: read-only Get on FACE-like skew.
func BenchmarkFig11Face(b *testing.B) {
	keys := dataset.Generate(dataset.FACELike, benchN, 1)
	probes := dataset.Shuffled(keys, 2)
	for _, name := range []string{"rs", "rmi", "pgm", "alex"} {
		idx := loadedIndex(b, name, keys)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx.Get(probes[i%len(probes)])
			}
		})
	}
}

// BenchmarkFig12 covers Fig 12: parallel read-only Gets.
func BenchmarkFig12ParallelRead(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, benchN, 1)
	probes := dataset.Shuffled(keys, 2)
	for _, name := range []string{"alex", "pgm", "xindex", "btree", "cceh"} {
		idx := loadedIndex(b, name, keys)
		b.Run(name, func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					idx.Get(probes[i%len(probes)])
					i++
				}
			})
		})
	}
}

// BenchmarkFig13 covers Fig 13: write-only Insert per updatable index.
func BenchmarkFig13WriteOnly(b *testing.B) {
	all := dataset.Generate(dataset.YCSBNormal, benchN*2, 1)
	load, inserts := dataset.Split(all, benchN)
	order := dataset.Shuffled(inserts, 3)
	for _, name := range []string{"fiting-inp", "fiting-buf", "pgm", "alex", "xindex", "btree", "skiplist", "art", "cceh"} {
		b.Run(name, func(b *testing.B) {
			idx := loadedIndex(b, name, load)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := order[i%len(order)]
				if err := idx.Insert(k, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig14 covers Fig 14: concurrent inserts into XIndex.
func BenchmarkFig14ConcurrentWrite(b *testing.B) {
	all := dataset.Generate(dataset.YCSBNormal, benchN*2, 1)
	load, inserts := dataset.Split(all, benchN)
	order := dataset.Shuffled(inserts, 3)
	idx := loadedIndex(b, "xindex", load)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := order[i%len(order)]
			if err := idx.Insert(k, k); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkFig15 covers Fig 15: the YCSB-A mixed op stream per index.
func BenchmarkFig15MixedYCSBA(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, benchN, 1)
	for _, name := range []string{"fiting-buf", "pgm", "alex", "xindex", "btree"} {
		idx := loadedIndex(b, name, keys)
		gen := workload.NewGenerator(workload.YCSBA, keys, nil, 5)
		ops := gen.Ops(benchN)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op := ops[i%len(ops)]
				if op.Kind == workload.OpRead {
					idx.Get(op.Key)
				} else if err := idx.Insert(op.Key, op.Key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3 covers Table III: the size accounting itself.
func BenchmarkTable3Sizes(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, benchN, 1)
	idx := loadedIndex(b, "alex", keys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx.Sizes().Total() <= 0 {
			b.Fatal("bad sizes")
		}
	}
}

// BenchmarkFig16 covers Fig 16: index rebuild (recovery) per index.
func BenchmarkFig16Recovery(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, benchN, 1)
	for _, name := range []string{"rs", "pgm", "rmi", "alex", "xindex", "btree"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				loadedIndex(b, name, keys)
			}
		})
	}
}

// BenchmarkFig17a covers Fig 17(a): in-leaf search per approximation
// algorithm at comparable segment length.
func BenchmarkFig17aLeafSearch(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, benchN, 1)
	probes := dataset.Shuffled(keys, 2)
	for _, a := range []core.Approximator{core.LSA{SegLen: 256}, core.OptPLA{Eps: 32}, core.Greedy{Eps: 32}, core.LSAGap{SegLen: 256}} {
		leaves := a.Build(keys, keys)
		firsts := make([]uint64, len(leaves))
		for i, l := range leaves {
			firsts[i] = l.FirstKey
		}
		s := core.NewBTreeTop()
		s.Build(firsts)
		pl := make([]*core.Leaf, len(probes))
		for i, k := range probes {
			pl[i] = leaves[s.Locate(k)]
		}
		b.Run(a.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j := i % len(probes)
				if _, ok := pl[j].Find(probes[j]); !ok {
					b.Fatal("missing")
				}
			}
		})
	}
}

// BenchmarkFig17b covers Fig 17(b): segmentation build cost per
// algorithm (its output is the error/leaf-count frontier).
func BenchmarkFig17bSegmentation(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, benchN, 1)
	for _, a := range []core.Approximator{core.LSA{SegLen: 256}, core.OptPLA{Eps: 32}, core.LSAGap{SegLen: 256}} {
		b.Run(a.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.Build(keys, nil)
			}
		})
	}
}

// BenchmarkFig17c covers Fig 17(c): Locate per structure at 100k leaves.
func BenchmarkFig17cStructures(b *testing.B) {
	firsts := dataset.Generate(dataset.YCSBNormal, 100_000, 1)
	probes := dataset.Shuffled(firsts, 2)
	for _, s := range core.Structures() {
		s.Build(firsts)
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Locate(probes[i%len(probes)])
			}
		})
	}
}

// BenchmarkFig17d covers Fig 17(d): full composed lookups per pairing.
func BenchmarkFig17dCombos(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, benchN, 1)
	probes := dataset.Shuffled(keys, 2)
	combos := []struct {
		name string
		c    *core.Composed
	}{
		{"btree+opt-pla", core.Compose(core.OptPLA{Eps: 32}, core.NewBTreeTop(), core.BufferInsert{}, core.RetrainNode{})},
		{"lrs+opt-pla", core.Compose(core.OptPLA{Eps: 32}, pla.NewLRS(8), core.BufferInsert{}, core.RetrainNode{})},
		{"rmi+lsa", core.Compose(core.LSA{SegLen: 256}, pla.NewRMI(0), core.BufferInsert{}, core.RetrainNode{})},
		{"ats+lsa-gap", core.Compose(core.LSAGap{SegLen: 256}, core.NewATS(16, 64), core.GapInsert{}, core.ExpandOrSplit{})},
	}
	for _, cb := range combos {
		if err := cb.c.BulkLoad(keys, keys); err != nil {
			b.Fatal(err)
		}
		b.Run(cb.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := cb.c.Get(probes[i%len(probes)]); !ok {
					b.Fatal("missing")
				}
			}
		})
	}
}

// BenchmarkFig18a covers Fig 18(a): one insert per strategy.
func BenchmarkFig18aInsertStrategies(b *testing.B) {
	all := dataset.Generate(dataset.YCSBNormal, benchN, 1)
	load, inserts := dataset.Split(all, benchN/2)
	order := dataset.Shuffled(inserts, 3)
	cases := []struct {
		name string
		mk   func() *core.Composed
	}{
		{"inplace-256", func() *core.Composed {
			return core.Compose(core.OptPLA{Eps: 32}, core.NewBTreeTop(), core.Inplace{Reserve: 256}, core.RetrainNode{})
		}},
		{"buffer-256", func() *core.Composed {
			return core.Compose(core.OptPLA{Eps: 32}, core.NewBTreeTop(), core.BufferInsert{Size: 256}, core.RetrainNode{})
		}},
		{"alex-gap", func() *core.Composed {
			return core.Compose(core.LSAGap{SegLen: 256}, core.NewBTreeTop(), core.GapInsert{}, core.ExpandOrSplit{})
		}},
	}
	for _, cs := range cases {
		b.Run(cs.name, func(b *testing.B) {
			c := cs.mk()
			if err := c.BulkLoad(load, load); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := order[i%len(order)]
				if err := c.Insert(k, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig18bcd covers Fig 18(b-d): insert streams whose outputs are
// the retraining counters, per real index.
func BenchmarkFig18bcdRetraining(b *testing.B) {
	all := dataset.Generate(dataset.YCSBNormal, benchN, 1)
	load, inserts := dataset.Split(all, benchN/2)
	order := dataset.Shuffled(inserts, 3)
	for _, name := range []string{"fiting-inp", "fiting-buf", "pgm", "alex"} {
		b.Run(name, func(b *testing.B) {
			idx := loadedIndex(b, name, load)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := order[i%len(order)]
				if err := idx.Insert(k, k); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if count, ns, ok := index.RetrainStatsOf(idx); ok {
				b.ReportMetric(float64(count), "retrains")
				b.ReportMetric(float64(ns), "retrain-ns")
			}
		})
	}
}

// --- Ablations (DESIGN.md) ---

// BenchmarkAblationGaps compares gapped vs packed leaf search at equal
// model quality: the cost/benefit of ALEX's extra space.
func BenchmarkAblationGaps(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, 65536, 1)
	probes := dataset.Shuffled(keys, 2)
	packed := core.LSA{SegLen: 256}.Build(keys, keys)
	gapped := core.LSAGap{SegLen: 256}.Build(keys, keys)
	run := func(name string, leaves []*core.Leaf) {
		firsts := make([]uint64, len(leaves))
		for i, l := range leaves {
			firsts[i] = l.FirstKey
		}
		s := core.NewBTreeTop()
		s.Build(firsts)
		pl := make([]*core.Leaf, len(probes))
		for i, k := range probes {
			pl[i] = leaves[s.Locate(k)]
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j := i % len(probes)
				pl[j].Find(probes[j])
			}
		})
	}
	run("packed", packed)
	run("gapped", gapped)
}

// BenchmarkAblationLeafSearch compares the final-mile search inside the
// model's error window against plain binary search over the whole array.
func BenchmarkAblationLeafSearch(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, 65536, 1)
	probes := dataset.Shuffled(keys, 2)
	segs := pla.BuildOptPLA(keys, 64)
	b.Run("bounded-binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := probes[i%len(probes)]
			s := pla.FindSegment(segs, k)
			p := s.Predict(k)
			lo, hi := p-s.MaxErr, p+s.MaxErr+1
			if lo < 0 {
				lo = 0
			}
			if hi > len(keys) {
				hi = len(keys)
			}
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
		keys := dataset.Generate(kind, benchN, 1)
		probes := dataset.Shuffled(keys, 2)
		for _, bits := range []int{8, 12, 16, 18} {
			ix := flat.NewRS(flat.RSConfig{RadixBits: bits, MaxError: 32})
			if err := ix.BulkLoad(keys, keys); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/r=%d", kind, bits), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ix.Get(probes[i%len(probes)])
				}
			})
		}
	}
}

// BenchmarkAblationEpsilon sweeps PGM's error bound: fewer segments vs
// wider final search.
func BenchmarkAblationEpsilon(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, benchN, 1)
	probes := dataset.Shuffled(keys, 2)
	for _, eps := range []int{8, 32, 128, 512} {
		ix := pgm.New(pgm.Config{Eps: eps, EpsInternal: 8})
		if err := ix.BulkLoad(keys, keys); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("eps=%d", eps), func(b *testing.B) {
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
		region := pmem.NewRegion(256<<20, lat.model)
		idx := loadedIndex(b, "alex", nil)
		store := viper.Open(region, idx)
		if err := store.BulkPut(keys, make([]byte, viper.DefaultValueSize)); err != nil {
			b.Fatal(err)
		}
		b.Run(lat.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := store.Get(probes[i%len(probes)]); !ok {
					b.Fatal("missing")
				}
			}
		})
	}
}

// BenchmarkExtensionLIPP measures the LIPP-style index (the §V-B1 design
// the paper could not evaluate) against ALEX on the same keys.
func BenchmarkExtensionLIPP(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, benchN, 1)
	probes := dataset.Shuffled(keys, 2)
	for _, name := range []string{"lipp", "alex"} {
		idx := loadedIndex(b, name, keys)
		b.Run(name+"/get", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := idx.Get(probes[i%len(probes)]); !ok {
					b.Fatal("missing")
				}
			}
		})
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
		op, _ := gen.Next()
		probes[i] = op.Key
		weights[pos[op.Key]]++
	}
	for i := range weights {
		weights[i]++
	}
	plain := core.NewATS(16, 64)
	plain.Build(firsts)
	hot := core.NewHotATS(16, 64)
	hot.SetWeights(weights)
	hot.Build(firsts)
	b.Run("ats", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plain.Locate(probes[i%len(probes)])
		}
	})
	b.Run("hot-ats", func(b *testing.B) {
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
	cases := []struct {
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
	}
	for _, cs := range cases {
		b.Run(cs.name, func(b *testing.B) {
			c := cs.mk()
			if err := c.BulkLoad(load, load); err != nil {
				b.Fatal(err)
			}
			next := seq[len(load)-1]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next++
				if err := c.Insert(next, next); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHarness smoke-runs the lightest experiment end to end so the
// harness itself is covered by `go test -bench`.
func BenchmarkHarnessTable1(b *testing.B) {
	cfg := bench.DefaultConfig(io.Discard)
	for i := 0; i < b.N; i++ {
		if err := bench.RunTable1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
