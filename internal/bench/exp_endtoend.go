package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"learnedpieces/internal/core"
	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/sharded"
	"learnedpieces/internal/stats"
	"learnedpieces/internal/workload"
)

// endToEndNames lists every index of the §III evaluation in plot order:
// the learned indexes, the traditional sorted indexes, and CCEH (the
// unsorted "black line" upper bound).
func endToEndNames() []string {
	return []string{
		"rmi", "rs", "fiting-inp", "fiting-buf", "pgm", "alex", "xindex",
		"btree", "skiplist", "art", "cceh",
	}
}

// updatableNames lists the indexes that participate in write workloads.
func updatableNames() []string {
	return []string{
		"fiting-inp", "fiting-buf", "pgm", "alex", "xindex",
		"btree", "skiplist", "art", "cceh",
	}
}

func mustEntry(name string) core.Entry {
	e, ok := core.Lookup(name)
	if !ok {
		panic("bench: unknown index " + name)
	}
	return e
}

// RunTable1 prints the qualitative Table I from the registry.
func RunTable1(cfg Config) error {
	t := stats.NewTable("Table I: technology comparison",
		"index", "inner node", "leaf node", "error", "approximation", "insertion", "retraining", "conc.writes")
	for _, e := range core.Registry() {
		if !e.Learned {
			continue
		}
		cw := "no"
		if e.ConcurrentWrites {
			cw = "yes"
		}
		t.AddRow(e.Name, e.InnerNode, e.LeafNode, e.Error, e.Approximation, e.Insertion, e.Retraining, cw)
	}
	cfg.render(t)
	return nil
}

// RunTable2 reproduces Table II: the average depth of the learned
// indexes after bulk loading YCSB and OSM keys.
func RunTable2(cfg Config) error {
	t := stats.NewTable(fmt.Sprintf("Table II: average depth (n=%d)", cfg.N),
		"dataset", "rmi", "fiting-buf", "pgm", "alex", "xindex")
	for _, kind := range []dataset.Kind{dataset.YCSBNormal, dataset.OSMLike} {
		keys := dataset.Generate(kind, cfg.N, cfg.Seed)
		row := []interface{}{kind.String()}
		for _, name := range []string{"rmi", "fiting-buf", "pgm", "alex", "xindex"} {
			idx := mustEntry(name).New()
			if err := idx.BulkLoad(keys, keys); err != nil {
				return err
			}
			depth, _ := index.DepthOf(idx)
			row = append(row, fmt.Sprintf("%.2f", depth))
		}
		t.AddRow(row...)
	}
	cfg.render(t)
	return nil
}

// RunFig10 reproduces Fig 10: single-threaded read-only throughput and
// p99.9 tail latency inside Viper, on YCSB and OSM, across dataset sizes.
func RunFig10(cfg Config) error {
	for _, kind := range []dataset.Kind{dataset.YCSBNormal, dataset.OSMLike} {
		t := stats.NewTable(fmt.Sprintf("Fig 10: read-only, %s", kind),
			"index", "size", "Mops/s", "p99.9(us)", "mean(ns)")
		for _, size := range cfg.Sizes {
			keys := dataset.Generate(kind, size, cfg.Seed)
			ops := workload.ReadStream(keys, cfg.Ops, cfg.Seed+1)
			for _, name := range endToEndNames() {
				s, err := cfg.buildStore(mustEntry(name).New(), keys)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				sum := cfg.runReads(s, ops)
				t.AddRow(name, size, mops(sum), usec(sum.P999Ns), sum.MeanNs)
				_ = s.Close()
			}
		}
		cfg.render(t)
	}
	return nil
}

// RunFig11 reproduces Fig 11: the FACE dataset, where RS's fixed radix
// prefix stops helping and its performance collapses.
func RunFig11(cfg Config) error {
	keys := dataset.Generate(dataset.FACELike, cfg.N, cfg.Seed)
	ops := workload.ReadStream(keys, cfg.Ops, cfg.Seed+1)
	t := stats.NewTable(fmt.Sprintf("Fig 11: read-only on FACE (n=%d)", cfg.N),
		"index", "Mops/s", "p99.9(us)")
	for _, name := range endToEndNames() {
		s, err := cfg.buildStore(mustEntry(name).New(), keys)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		sum := cfg.runReads(s, ops)
		t.AddRow(name, mops(sum), usec(sum.P999Ns))
		_ = s.Close()
	}
	cfg.render(t)
	return nil
}

// RunFig12 reproduces Fig 12: read-only throughput and tail latency
// under increasing thread counts (all indexes support concurrent reads).
func RunFig12(cfg Config) error {
	keys := dataset.Generate(dataset.YCSBNormal, cfg.N, cfg.Seed)
	t := stats.NewTable(fmt.Sprintf("Fig 12: multi-threaded read-only, YCSB (n=%d)", cfg.N),
		"index", "threads", "Mops/s", "p99.9(us)")
	for _, name := range endToEndNames() {
		s, err := cfg.buildStore(mustEntry(name).New(), keys)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, threads := range cfg.Threads {
			h := stats.NewHistogram()
			var wg sync.WaitGroup
			runtime.GC()
			start := time.Now()
			for w := 0; w < threads; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					ops := workload.ReadStream(keys, cfg.Ops/threads, cfg.Seed+int64(w))
					for _, op := range ops {
						t0 := time.Now()
						s.Get(op.Key)
						h.RecordSince(t0)
					}
				}(w)
			}
			wg.Wait()
			sum := stats.Summarize("", h, time.Since(start))
			t.AddRow(name, threads, mops(sum), usec(sum.P999Ns))
		}
		_ = s.Close()
	}
	cfg.render(t)
	return nil
}

// RunFig13 reproduces Fig 13: single-threaded write-only throughput and
// tail latency across dataset sizes (inserts into an initially small
// store; read-only learned indexes cannot participate).
func RunFig13(cfg Config) error {
	for _, kind := range []dataset.Kind{dataset.YCSBNormal, dataset.OSMLike} {
		t := stats.NewTable(fmt.Sprintf("Fig 13: write-only, %s", kind),
			"index", "size", "Mops/s", "p99.9(us)")
		for _, size := range cfg.Sizes {
			keys := dataset.Generate(kind, size, cfg.Seed)
			load, inserts := dataset.Split(keys, size*9/10)
			ops := workload.InsertStream(inserts, cfg.Seed+2)
			for _, name := range updatableNames() {
				s, err := cfg.buildStore(mustEntry(name).New(), load)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				sum, err := runWrites(s, ops, cfg.value())
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				t.AddRow(name, size, mops(sum), usec(sum.P999Ns))
				_ = s.Close()
			}
		}
		cfg.render(t)
	}
	return nil
}

// lockedIndex makes a single-writer index usable by concurrent writers
// with one RWMutex — the simple concurrent baseline for Fig 14 (the
// paper's Masstree-class baselines are natively concurrent; this coarse
// lock is the honest Go equivalent and is labelled as such).
type lockedIndex struct {
	mu sync.RWMutex
	index.Index
}

func (l *lockedIndex) Get(key uint64) (uint64, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.Index.Get(key)
}

// GetBatch implements index.BatchGetter under one RLock for the whole
// batch: the lock is taken once per batch instead of once per key, which
// is the best a coarse reader-writer lock can do for batched lookups.
// The inner batch kernel is used when the wrapped index has one.
func (l *lockedIndex) GetBatch(keys []uint64, vals []uint64, found []bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if b := index.Seams(l.Index).Batch; b != nil {
		b.GetBatch(keys, vals, found)
		return
	}
	for i, k := range keys {
		vals[i], found[i] = l.Index.Get(k)
	}
}

func (l *lockedIndex) Insert(key, value uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.Index.Insert(key, value)
}

// InsertReplace keeps the store's live count exact under concurrent
// writers: the inner upsert runs inside the critical section.
func (l *lockedIndex) InsertReplace(key, value uint64) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.Index.InsertReplace(key, value)
}

func (l *lockedIndex) Name() string { return l.Index.Name() + "+lock" }

// Caps implements index.Capser. The embedded field is the index.Index
// interface, so none of the inner type's optional interfaces are
// promoted — beyond what every index does, the wrapper's surface is
// batched reads and writes made concurrent-safe (and InsertReplace
// exact) by the lock. Its BulkLoad is the inner one, unlocked: the store
// preloads before any writer starts.
func (l *lockedIndex) Caps() index.Caps {
	return index.Caps{BatchGet: true, ConcurrentWrites: true}
}

// RunFig14 reproduces Fig 14: multi-threaded write-only. XIndex writes
// concurrently natively; CCEH via its internal lock; the traditional
// ordered indexes run both range-sharded (the stand-in for the paper's
// natively concurrent Masstree-class baselines) and behind one coarse
// RWMutex (the naive floor).
func RunFig14(cfg Config) error {
	keys := dataset.Generate(dataset.YCSBNormal, cfg.N, cfg.Seed)
	load, inserts := dataset.Split(keys, cfg.N/2)
	t := stats.NewTable(fmt.Sprintf("Fig 14: multi-threaded write-only, YCSB (n=%d)", cfg.N),
		"index", "threads", "Mops/s", "p99.9(us)")
	builders := []struct {
		name string
		mk   func() index.Index
	}{
		{"xindex", func() index.Index { return mustEntry("xindex").New() }},
		{"finedex", func() index.Index { return mustEntry("finedex").New() }},
		{"cceh", func() index.Index { return mustEntry("cceh").New() }},
		{"btree+sharded", func() index.Index {
			return sharded.New(func() index.Index { return mustEntry("btree").New() },
				sharded.BoundariesFromSample(keys, 32))
		}},
		{"skiplist+sharded", func() index.Index {
			return sharded.New(func() index.Index { return mustEntry("skiplist").New() },
				sharded.BoundariesFromSample(keys, 32))
		}},
		{"art+sharded", func() index.Index {
			return sharded.New(func() index.Index { return mustEntry("art").New() },
				sharded.BoundariesFromSample(keys, 32))
		}},
		{"btree+lock", func() index.Index {
			return &lockedIndex{Index: mustEntry("btree").New()}
		}},
	}
	for _, b := range builders {
		name := b.name
		for _, threads := range cfg.Threads {
			idx := b.mk()
			s, err := cfg.buildStore(idx, load)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			stream := workload.InsertStream(inserts, cfg.Seed+3)
			h := stats.NewHistogram()
			var wg sync.WaitGroup
			errs := make(chan error, threads)
			runtime.GC()
			start := time.Now()
			for w := 0; w < threads; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					v := cfg.value()
					for i := w; i < len(stream); i += threads {
						t0 := time.Now()
						if err := s.Put(stream[i].Key, v); err != nil {
							errs <- err
							return
						}
						h.RecordSince(t0)
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			sum := stats.Summarize("", h, time.Since(start))
			t.AddRow(name, threads, mops(sum), usec(sum.P999Ns))
			_ = s.Close()
		}
	}
	cfg.render(t)
	return nil
}

// RunFig15 reproduces Fig 15: the read-write-mixed YCSB workloads
// A/B/D/F over the updatable indexes.
func RunFig15(cfg Config) error {
	t := stats.NewTable(fmt.Sprintf("Fig 15: read-write-mixed YCSB (n=%d)", cfg.N),
		"index", "workload", "Mops/s", "p99.9(us)")
	all := dataset.Generate(dataset.YCSBNormal, cfg.N*3/2, cfg.Seed)
	load, inserts := dataset.Split(all, cfg.N/2)
	for _, mix := range workload.Mixes() {
		for _, name := range updatableNames() {
			s, err := cfg.buildStore(mustEntry(name).New(), load)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			gen := workload.NewGenerator(mix, load, inserts, cfg.Seed+4)
			sum, err := runMixed(s, gen, cfg.Ops, cfg.value())
			if err != nil {
				return fmt.Errorf("%s/%s: %w", name, mix.Name, err)
			}
			t.AddRow(name, mix.Name, mops(sum), usec(sum.P999Ns))
			_ = s.Close()
		}
	}
	cfg.render(t)
	return nil
}

// RunTable3 reproduces Table III: the three space-overhead scenarios —
// index structure only, index+keys, index+keys+values.
func RunTable3(cfg Config) error {
	keys := dataset.Generate(dataset.YCSBNormal, cfg.N, cfg.Seed)
	t := stats.NewTable(fmt.Sprintf("Table III: space overhead (n=%d, %dB values)", cfg.N, cfg.ValueSize),
		"index", "index size", "index+key size", "index+KV size")
	for _, name := range endToEndNames() {
		s, err := cfg.buildStore(mustEntry(name).New(), keys)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		st, wk, wkv := s.Sizes()
		t.AddRow(name, human(st), human(wk), human(wkv))
		_ = s.Close()
	}
	cfg.render(t)
	return nil
}

func human(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

// RunFig16 reproduces Fig 16: recovery time — rebuild each index from
// the PMem pages after a simulated crash, across dataset sizes.
func RunFig16(cfg Config) error {
	t := stats.NewTable("Fig 16: recovery time",
		"index", "size", "recovery (scan+build)", "index build")
	for _, size := range cfg.Sizes {
		keys := dataset.Generate(dataset.YCSBNormal, size, cfg.Seed)
		base, err := cfg.buildStore(mustEntry("btree").New(), keys)
		if err != nil {
			return err
		}
		offs := make([]uint64, len(keys))
		for i := range offs {
			offs[i] = uint64(i)
		}
		for _, name := range endToEndNames() {
			if name == "cceh" {
				continue // unsorted; recovery needs no sorted rebuild
			}
			e := mustEntry(name)
			// Crash: drop the DRAM index, keep the PMem pages.
			base.DropIndex(mustEntry("btree").New())
			runtime.GC()
			start := time.Now()
			if err := base.Recover(e.New()); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			recovery := time.Since(start)
			// Isolated rebuild from an already-sorted key array: the page
			// scan is identical for every index, so this column is where
			// the paper's per-index differences (RS fastest, ALEX/XIndex
			// slowest among learned) live.
			idx := e.New()
			runtime.GC()
			start = time.Now()
			if err := idx.BulkLoad(keys, offs); err != nil {
				return err
			}
			t.AddRow(name, size, recovery, time.Since(start))
		}
		_ = base.Close()
	}
	cfg.render(t)
	return nil
}
