package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"learnedpieces/internal/core"
	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/pla"
	"learnedpieces/internal/stats"
	"learnedpieces/internal/workload"
)

// approxSweep is one approximation-algorithm configuration of the
// Fig 17(a/b) sweep.
type approxSweep struct {
	label string
	a     core.Approximator
}

// approxSweeps spans each algorithm over its tunable, producing the
// error/leaf-count frontier the paper plots.
func approxSweeps() []approxSweep {
	var out []approxSweep
	for _, seg := range []int{64, 128, 256, 512, 1024, 2048} {
		out = append(out, approxSweep{fmt.Sprintf("lsa/seg=%d", seg), core.LSA{SegLen: seg}})
	}
	for _, eps := range []int{4, 8, 16, 32, 64, 128} {
		out = append(out, approxSweep{fmt.Sprintf("opt-pla/eps=%d", eps), core.OptPLA{Eps: eps}})
	}
	for _, seg := range []int{64, 128, 256, 512, 1024, 2048} {
		out = append(out, approxSweep{fmt.Sprintf("lsa-gap/seg=%d", seg), core.LSAGap{SegLen: seg}})
	}
	return out
}

// leafProbeTime measures the average in-leaf lookup time: leaves are
// pre-located so only the model prediction + local search is timed —
// exactly the quantity Fig 17(a) plots against average error.
func leafProbeTime(leaves []*core.Leaf, keys []uint64, probes int, seed int64) float64 {
	firsts := make([]uint64, len(leaves))
	for i, l := range leaves {
		firsts[i] = l.FirstKey
	}
	s := core.NewBTreeTop()
	s.Build(firsts)
	rng := rand.New(rand.NewSource(seed))
	probeLeaves := make([]*core.Leaf, probes)
	probeKeys := make([]uint64, probes)
	for i := 0; i < probes; i++ {
		k := keys[rng.Intn(len(keys))]
		probeLeaves[i] = leaves[s.Locate(k)]
		probeKeys[i] = k
	}
	runtime.GC()
	start := time.Now()
	for i := 0; i < probes; i++ {
		if _, ok := probeLeaves[i].Find(probeKeys[i]); !ok {
			panic("bench: loaded key missing from leaf")
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(probes)
}

// RunFig17a reproduces Fig 17(a): average model error vs in-leaf query
// time per approximation algorithm.
func RunFig17a(cfg Config) error {
	keys := dataset.Generate(dataset.YCSBNormal, cfg.N, cfg.Seed)
	t := stats.NewTable(fmt.Sprintf("Fig 17(a): approximation algorithms, YCSB (n=%d)", cfg.N),
		"config", "leaves", "avg err", "max err", "leaf query (ns)")
	for _, sw := range approxSweeps() {
		leaves := sw.a.Build(keys, keys)
		m := core.LeafMetrics(leaves)
		ns := leafProbeTime(leaves, keys, cfg.Ops/4, cfg.Seed+1)
		t.AddRow(sw.label, m.Segments, m.AvgErr, m.MaxErr, ns)
	}
	cfg.render(t)
	return nil
}

// RunFig17b reproduces Fig 17(b): average error vs leaf count per
// algorithm (the conflict LSA-gap escapes by reshaping the CDF).
func RunFig17b(cfg Config) error {
	t := stats.NewTable(fmt.Sprintf("Fig 17(b): error vs leaf count (n=%d)", cfg.N),
		"dataset", "config", "leaves", "avg err", "max err")
	for _, kind := range []dataset.Kind{dataset.YCSBNormal, dataset.OSMLike} {
		keys := dataset.Generate(kind, cfg.N, cfg.Seed)
		for _, sw := range approxSweeps() {
			m := core.LeafMetrics(sw.a.Build(keys, nil))
			t.AddRow(kind.String(), sw.label, m.Segments, m.AvgErr, m.MaxErr)
		}
	}
	cfg.render(t)
	return nil
}

// RunFig17c reproduces Fig 17(c): root-to-leaf locate time per structure
// as the leaf count grows.
func RunFig17c(cfg Config) error {
	t := stats.NewTable("Fig 17(c): structures: leaf count vs locate time",
		"structure", "leaves", "locate (ns)", "depth")
	for _, leafCount := range []int{1_000, 10_000, 100_000, 400_000} {
		firsts := dataset.Generate(dataset.YCSBNormal, leafCount, cfg.Seed)
		probes := workload.ReadStream(firsts, cfg.Ops/2, cfg.Seed+1)
		for _, s := range core.Structures() {
			s.Build(firsts)
			runtime.GC()
			start := time.Now()
			for _, op := range probes {
				s.Locate(op.Key)
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(len(probes))
			t.AddRow(s.Name(), leafCount, ns, s.Depth())
		}
	}
	cfg.render(t)
	return nil
}

// RunFig17d reproduces Fig 17(d): for each (structure, algorithm) pairing
// used by a real index, the per-lookup cost split into structure time and
// leaf time — the scatter whose bottom-left corner ALEX occupies.
func RunFig17d(cfg Config) error {
	keys := dataset.Generate(dataset.YCSBNormal, cfg.N, cfg.Seed)
	combos := []struct {
		label     string
		structure core.Structure
		approx    core.Approximator
	}{
		{"fiting (BTREE+opt-pla)", core.NewBTreeTop(), core.OptPLA{Eps: 32}},
		{"pgm (LRS+opt-pla)", pla.NewLRS(8), core.OptPLA{Eps: 32}},
		{"xindex (RMI+lsa)", pla.NewRMI(0), core.LSA{SegLen: 256}},
		{"alex (ATS+lsa-gap)", core.NewATS(16, 64), core.LSAGap{SegLen: 256}},
	}
	t := stats.NewTable(fmt.Sprintf("Fig 17(d): structure cost vs leaf cost (n=%d)", cfg.N),
		"combination", "leaves", "structure (ns)", "leaf (ns)", "total (ns)")
	probes := workload.ReadStream(keys, cfg.Ops/2, cfg.Seed+1)
	for _, c := range combos {
		leaves := c.approx.Build(keys, keys)
		firsts := make([]uint64, len(leaves))
		for i, l := range leaves {
			firsts[i] = l.FirstKey
		}
		c.structure.Build(firsts)
		// Structure phase.
		located := make([]*core.Leaf, len(probes))
		runtime.GC()
		start := time.Now()
		for i, op := range probes {
			located[i] = leaves[c.structure.Locate(op.Key)]
		}
		structNs := float64(time.Since(start).Nanoseconds()) / float64(len(probes))
		// Leaf phase.
		start = time.Now()
		for i, op := range probes {
			located[i].Find(op.Key)
		}
		leafNs := float64(time.Since(start).Nanoseconds()) / float64(len(probes))
		t.AddRow(c.label, len(leaves), structNs, leafNs, structNs+leafNs)
	}
	cfg.render(t)
	return nil
}

// RunFig18a reproduces Fig 18(a): insertion time per strategy as the
// reserved space grows (Inplace and Buffer are sized; ALEX-gap sizes
// itself). Retraining time is reported separately so the strategy cost
// is isolated, as in the paper.
func RunFig18a(cfg Config) error {
	all := dataset.Generate(dataset.YCSBNormal, cfg.N, cfg.Seed)
	load, inserts := dataset.Split(all, cfg.N/4)
	order := dataset.Shuffled(inserts, cfg.Seed+2)
	t := stats.NewTable(fmt.Sprintf("Fig 18(a): insertion strategies (load=%d, inserts=%d)", len(load), len(order)),
		"strategy", "reserved", "insert avg (ns)", "retrain share")
	run := func(label string, reserved int, st core.InsertStrategy) error {
		c := core.Compose(core.OptPLA{Eps: 32}, core.NewBTreeTop(), st, core.RetrainNode{})
		if err := c.BulkLoad(load, load); err != nil {
			return err
		}
		runtime.GC()
		start := time.Now()
		for _, k := range order {
			if err := c.Insert(k, k); err != nil {
				return err
			}
		}
		total := time.Since(start).Nanoseconds()
		_, retrainNs := c.RetrainStats()
		insertNs := float64(total-retrainNs) / float64(len(order))
		t.AddRow(label, reserved, insertNs, fmt.Sprintf("%.0f%%", 100*float64(retrainNs)/float64(total)))
		return nil
	}
	for _, reserve := range []int{128, 256, 512, 1024} {
		if err := run("inplace", reserve, core.Inplace{Reserve: reserve}); err != nil {
			return err
		}
		if err := run("buffer", reserve, core.BufferInsert{Size: reserve}); err != nil {
			return err
		}
	}
	// ALEX-gap: reserved space is implicit in the gapped layout.
	cgap := core.Compose(core.LSAGap{SegLen: 256}, core.NewBTreeTop(), core.GapInsert{}, core.ExpandOrSplit{MaxLeafKeys: 4096})
	if err := cgap.BulkLoad(load, load); err != nil {
		return err
	}
	runtime.GC()
	start := time.Now()
	for _, k := range order {
		if err := cgap.Insert(k, k); err != nil {
			return err
		}
	}
	total := time.Since(start).Nanoseconds()
	_, retrainNs := cgap.RetrainStats()
	t.AddRow("alex-gap", "auto", float64(total-retrainNs)/float64(len(order)),
		fmt.Sprintf("%.0f%%", 100*float64(retrainNs)/float64(total)))
	cfg.render(t)
	return nil
}

// RunFig18b reproduces Fig 18(b): retraining behaviour of the real
// indexes — how often each retrains, how long one retrain takes, and the
// total, as inserts accumulate.
func RunFig18b(cfg Config) error {
	all := dataset.Generate(dataset.YCSBNormal, cfg.N, cfg.Seed)
	load, inserts := dataset.Split(all, cfg.N/2)
	order := dataset.Shuffled(inserts, cfg.Seed+2)
	t := stats.NewTable(fmt.Sprintf("Fig 18(b): retraining (load=%d, inserts=%d)", len(load), len(order)),
		"index", "inserted", "retrains", "avg retrain", "total retrain")
	for _, name := range []string{"fiting-buf", "pgm", "alex"} {
		idx := mustEntry(name).New()
		if err := idx.BulkLoad(load, load); err != nil {
			return err
		}
		checkpoints := 4
		chunk := len(order) / checkpoints
		for c := 0; c < checkpoints; c++ {
			for _, k := range order[c*chunk : (c+1)*chunk] {
				if err := idx.Insert(k, k); err != nil {
					return err
				}
			}
			count, ns, _ := index.RetrainStatsOf(idx)
			avg := time.Duration(0)
			if count > 0 {
				avg = time.Duration(ns / count)
			}
			t.AddRow(name, (c+1)*chunk, count, avg, time.Duration(ns))
		}
	}
	cfg.render(t)
	return nil
}

// RunFig18c reproduces Fig 18(c): the buffer strategy's reserved-space
// sweep — larger buffers mean fewer but longer retrains and a smaller
// total retraining time.
func RunFig18c(cfg Config) error {
	all := dataset.Generate(dataset.YCSBNormal, cfg.N, cfg.Seed)
	load, inserts := dataset.Split(all, cfg.N/2)
	order := dataset.Shuffled(inserts, cfg.Seed+2)
	t := stats.NewTable(fmt.Sprintf("Fig 18(c): buffer size vs retraining (inserts=%d)", len(order)),
		"buffer", "retrains", "avg retrain", "total retrain")
	for _, size := range []int{128, 256, 512, 1024} {
		idx := core.Compose(core.OptPLA{Eps: 32}, core.NewBTreeTop(), core.BufferInsert{Size: size}, core.RetrainNode{})
		if err := idx.BulkLoad(load, load); err != nil {
			return err
		}
		for _, k := range order {
			if err := idx.Insert(k, k); err != nil {
				return err
			}
		}
		count, ns := idx.RetrainStats()
		avg := time.Duration(0)
		if count > 0 {
			avg = time.Duration(ns / count)
		}
		t.AddRow(size, count, avg, time.Duration(ns))
	}
	cfg.render(t)
	return nil
}

// RunFig18d reproduces Fig 18(d): total update cost (insertion plus
// retraining) per index update strategy.
func RunFig18d(cfg Config) error {
	all := dataset.Generate(dataset.YCSBNormal, cfg.N, cfg.Seed)
	load, inserts := dataset.Split(all, cfg.N/2)
	order := dataset.Shuffled(inserts, cfg.Seed+2)
	t := stats.NewTable(fmt.Sprintf("Fig 18(d): total insert+retrain time (inserts=%d)", len(order)),
		"index", "total", "retrain part", "insert part")
	for _, name := range []string{"fiting-inp", "fiting-buf", "pgm", "alex"} {
		idx := mustEntry(name).New()
		if err := idx.BulkLoad(load, load); err != nil {
			return err
		}
		runtime.GC()
		start := time.Now()
		for _, k := range order {
			if err := idx.Insert(k, k); err != nil {
				return err
			}
		}
		total := time.Since(start)
		_, retrainNs, _ := index.RetrainStatsOf(idx)
		t.AddRow(name, total, time.Duration(retrainNs), total-time.Duration(retrainNs))
	}
	cfg.render(t)
	return nil
}
