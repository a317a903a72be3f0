package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"learnedpieces/internal/core"
	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/learned/apex"
	"learnedpieces/internal/pla"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/stats"
	"learnedpieces/internal/viper"
	"learnedpieces/internal/workload"
)

// RunScan is the range-query evaluation, extended from the paper's
// appendix: every ordered index runs the same random-start scans
// through the store's one scan path (cursor pulls a batch of index
// entries, record reads issued in ascending PMem offset order,
// re-emitted in key order) across datasets and scan lengths.
func RunScan(cfg Config) error {
	datasets := []struct {
		label string
		kind  dataset.Kind
	}{
		{"ycsb", dataset.YCSBNormal},
		{"osm", dataset.OSMLike},
	}
	names := []string{"rmi-delta", "rs-delta", "fiting-buf", "pgm", "alex", "xindex", "lipp", "finedex", "btree", "skiplist", "art"}
	t := stats.NewTable(fmt.Sprintf("Range scans: offset-ordered cursor rounds, half-updated stores (n=%d)", cfg.N),
		"dataset", "index", "scan len", "fwd Me/s", "fwd p99.9(us)")
	for _, ds := range datasets {
		keys := dataset.Generate(ds.kind, cfg.N, cfg.Seed)
		for _, name := range names {
			s, err := cfg.buildStore(mustEntry(name).New(), keys)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			// Overwrite half the keys in shuffled order: updates append
			// fresh records at the log tail, so record placement
			// decorrelates from key order. This is the state every aged
			// store is in — and the state where offset-ordering matters
			// (a fresh bulk load is already offset-ordered, so a forward
			// scan reads the device near-sequentially there).
			v := cfg.value()
			for _, k := range dataset.Shuffled(keys, cfg.Seed+9)[:len(keys)/2] {
				if err := s.Put(k, v); err != nil {
					return fmt.Errorf("%s age: %w", name, err)
				}
			}
			s.DrainRetrains()
			for _, scanLen := range []int{10, 100} {
				nScans := cfg.Ops / scanLen
				if nScans < 1 {
					nScans = 1
				}
				rng := rand.New(rand.NewSource(cfg.Seed + int64(scanLen)))
				starts := make([]uint64, nScans)
				for i := range starts {
					starts[i] = keys[rng.Intn(len(keys))]
				}
				fwd, err := measureScans(s, starts, scanLen)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				t.AddRow(ds.label, name, scanLen, fmt.Sprintf("%.3f", fwd.meps), fwd.p999)
			}
			_ = s.Close()
		}
	}
	cfg.render(t)
	return nil
}

// scanRate is one scan measurement: million entries delivered per
// second and the per-scan p99.9 in microseconds.
type scanRate struct {
	meps float64
	p999 float64
}

// measureScans drives one scan per start key through Store.Range and
// aggregates the delivered-entry rate.
func measureScans(s *viper.Store, starts []uint64, scanLen int) (scanRate, error) {
	h := stats.NewHistogram()
	entries := 0
	cb := func(k uint64, v []byte) bool {
		entries++
		return true
	}
	runtime.GC()
	start := time.Now()
	for _, from := range starts {
		t0 := time.Now()
		if err := s.Range(from, scanLen, cb); err != nil {
			return scanRate{}, err
		}
		h.RecordSince(t0)
	}
	elapsed := time.Since(start)
	return scanRate{
		meps: float64(entries) / elapsed.Seconds() / 1e6,
		p999: usec(h.Percentile(99.9)),
	}, nil
}

// RunExtLIPP evaluates the LIPP-style index the paper could not (§V-B1:
// closed source at the time) against the best stock designs, end to end:
// read-only and write-only throughput, depth and footprint.
func RunExtLIPP(cfg Config) error {
	names := []string{"alex", "pgm", "xindex", "lipp", "finedex", "btree"}
	keys := dataset.Generate(dataset.YCSBNormal, cfg.N, cfg.Seed)
	t := stats.NewTable(fmt.Sprintf("Extension: LIPP vs stock designs, YCSB (n=%d)", cfg.N),
		"index", "read Mops/s", "read p99.9(us)", "insert Mops/s", "depth", "index size")
	load, inserts := dataset.Split(keys, cfg.N/4)
	for _, name := range names {
		// Read phase over the full key set.
		s, err := cfg.buildStore(mustEntry(name).New(), keys)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		readSum := cfg.runReads(s, workload.ReadStream(keys, cfg.Ops, cfg.Seed+1))
		// Write phase into a store loaded with the prefix.
		s2, err := cfg.buildStore(mustEntry(name).New(), load)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		v := cfg.value()
		runtime.GC()
		start := time.Now()
		for _, k := range dataset.Shuffled(inserts, cfg.Seed+2) {
			if err := s2.Put(k, v); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		insMops := float64(len(inserts)) / time.Since(start).Seconds() / 1e6
		depth, _ := index.DepthOf(s.Index())
		t.AddRow(name, mops(readSum), usec(readSum.P999Ns), insMops,
			fmt.Sprintf("%.2f", depth), human(s.Index().Sizes().Structure))
		_ = s.Close()
		_ = s2.Close()
	}
	cfg.render(t)
	return nil
}

// RunExtAPEX evaluates the APEX-style persistent learned index against
// the paper's Viper+ALEX arrangement on the same simulated PMem: the
// volatile-index design must rebuild by scanning every record after a
// crash (Fig 16), while APEX recovers from node headers alone. Both pay
// the same per-access NVM latency during reads/writes.
func RunExtAPEX(cfg Config) error {
	t := stats.NewTable("Extension: APEX (persistent index) vs Viper+ALEX (volatile index)",
		"design", "size", "get Mops/s", "insert Mops/s", "recovery")
	for _, size := range cfg.Sizes {
		keys := dataset.Generate(dataset.YCSBNormal, size, cfg.Seed)
		load, inserts := dataset.Split(keys, size/4)
		order := dataset.Shuffled(inserts, cfg.Seed+2)
		probes := workload.ReadStream(load, cfg.Ops, cfg.Seed+1)

		// Viper + volatile ALEX.
		s, err := cfg.buildStore(mustEntry("alex").New(), load)
		if err != nil {
			return err
		}
		getSum := cfg.runReads(s, probes)
		v := cfg.value()
		runtime.GC()
		start := time.Now()
		for _, k := range order {
			if err := s.Put(k, v); err != nil {
				return err
			}
		}
		insMops := float64(len(order)) / time.Since(start).Seconds() / 1e6
		s.DropIndex(mustEntry("btree").New())
		start = time.Now()
		if err := s.Recover(mustEntry("alex").New()); err != nil {
			return err
		}
		t.AddRow("viper+alex", size, mops(getSum), insMops, time.Since(start))
		_ = s.Close()

		// APEX on its own region.
		region := pmem.NewRegion(int(int64(size)*64+(64<<20)), cfg.latency())
		ax, err := apex.Create(region, apex.Config{LogCap: size})
		if err != nil {
			return err
		}
		if err := ax.BulkLoad(load, load); err != nil {
			return err
		}
		runtime.GC()
		start = time.Now()
		for _, op := range probes {
			if _, ok := ax.Get(op.Key); !ok {
				return fmt.Errorf("apex: key %d missing", op.Key)
			}
		}
		getMops := float64(len(probes)) / time.Since(start).Seconds() / 1e6
		start = time.Now()
		for _, k := range order {
			if err := ax.Insert(k, k); err != nil {
				return err
			}
		}
		axInsMops := float64(len(order)) / time.Since(start).Seconds() / 1e6
		start = time.Now()
		if _, err := apex.Recover(region); err != nil {
			return err
		}
		t.AddRow("apex", size, getMops, axInsMops, time.Since(start))
	}
	cfg.render(t)
	return nil
}

// RunCross answers the question §IV-C leaves open ("we do not know
// whether RMI will perform better than ATS after changing the
// approximation algorithm. This issue deserves to be further explored"):
// the full structure x approximation-algorithm cross, every combination
// measured as a working composed index on the same keys and probes.
func RunCross(cfg Config) error {
	keys := dataset.Generate(dataset.YCSBNormal, cfg.N, cfg.Seed)
	probes := workload.ReadStream(keys, cfg.Ops/2, cfg.Seed+1)
	structures := map[string]func() core.Structure{
		"btree": func() core.Structure { return core.NewBTreeTop() },
		"lrs":   func() core.Structure { return pla.NewLRS(8) },
		"rmi":   func() core.Structure { return pla.NewRMI(0) },
		"ats":   func() core.Structure { return core.NewATS(16, 64) },
	}
	approxes := map[string]core.Approximator{
		"lsa":     core.LSA{SegLen: 256},
		"opt-pla": core.OptPLA{Eps: 32},
		"greedy":  core.Greedy{Eps: 32},
		"lsa-gap": core.LSAGap{SegLen: 256},
	}
	t := stats.NewTable(fmt.Sprintf("Extension: structure x algorithm cross (get ns/op, n=%d)", cfg.N),
		"structure", "lsa", "opt-pla", "greedy", "lsa-gap")
	for _, sName := range []string{"btree", "lrs", "rmi", "ats"} {
		row := []interface{}{sName}
		for _, aName := range []string{"lsa", "opt-pla", "greedy", "lsa-gap"} {
			c := core.Compose(approxes[aName], structures[sName](), core.BufferInsert{}, core.RetrainNode{})
			if err := c.BulkLoad(keys, keys); err != nil {
				return err
			}
			runtime.GC()
			start := time.Now()
			for _, op := range probes {
				if _, ok := c.Get(op.Key); !ok {
					return fmt.Errorf("%s+%s: key missing", sName, aName)
				}
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(len(probes))
			row = append(row, fmt.Sprintf("%.0f", ns))
		}
		t.AddRow(row...)
	}
	cfg.render(t)
	return nil
}
