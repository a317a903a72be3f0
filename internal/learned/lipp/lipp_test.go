package lipp

import (
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/indextest"
)

func TestConformance(t *testing.T) {
	indextest.Run(t, "lipp", func() index.Index { return New(DefaultConfig()) })
}

// TestPrecisePositions verifies LIPP's defining property: a lookup never
// performs a local search — every Get resolves by following predictions
// through at most AvgDepth-ish nodes, and the bulk-built tree answers
// all loaded keys exactly.
func TestPrecisePositions(t *testing.T) {
	for _, kind := range []dataset.Kind{dataset.YCSBNormal, dataset.OSMLike, dataset.FACELike} {
		keys := dataset.Generate(kind, 50000, 3)
		ix := New(DefaultConfig())
		if err := ix.BulkLoad(keys, keys); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if v, ok := ix.Get(k); !ok || v != k {
				t.Fatalf("%v: get(%d) = %d,%v", kind, k, v, ok)
			}
		}
		if d := ix.AvgDepth(); d < 1 || d > 12 {
			t.Fatalf("%v: implausible depth %.2f", kind, d)
		}
	}
}

func TestConflictCreatesChild(t *testing.T) {
	ix := New(Config{GapFactor: 1.1, MinCapacity: 4})
	// Dense consecutive keys force slot conflicts on insert.
	for i := uint64(1); i <= 2000; i++ {
		if err := ix.Insert(i*2, i); err != nil {
			t.Fatal(err)
		}
	}
	if ix.NodeCount() < 2 {
		t.Fatal("no child nodes were created despite conflicts")
	}
	for i := uint64(1); i <= 2000; i++ {
		if v, ok := ix.Get(i * 2); !ok || v != i {
			t.Fatalf("get(%d) = %d,%v", i*2, v, ok)
		}
	}
}

func TestSubtreeRebuildTriggers(t *testing.T) {
	ix := New(Config{GapFactor: 1.2, ConflictRatio: 0.05})
	keys := dataset.Generate(dataset.YCSBUniform, 20000, 5)
	for _, k := range dataset.Shuffled(keys, 6) {
		if err := ix.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	count, ns := ix.RetrainStats()
	if count == 0 || ns <= 0 {
		t.Fatalf("no subtree rebuilds recorded: %d/%d", count, ns)
	}
	for _, k := range keys {
		if _, ok := ix.Get(k); !ok {
			t.Fatalf("key %d lost after rebuilds", k)
		}
	}
}

func TestAdversarialTightKeys(t *testing.T) {
	// Consecutive integers at a huge offset: model separation is hard.
	ix := New(DefaultConfig())
	base := uint64(1) << 62
	for i := uint64(0); i < 5000; i++ {
		if err := ix.Insert(base+i, i); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 5000 {
		t.Fatalf("Len = %d", ix.Len())
	}
	for i := uint64(0); i < 5000; i++ {
		if v, ok := ix.Get(base + i); !ok || v != i {
			t.Fatalf("get(%d) = %d,%v", base+i, v, ok)
		}
	}
	// Scans stay ordered through nested conflict children.
	prev := uint64(0)
	n := 0
	index.Scan(ix, 0, 0, func(k, v uint64) bool {
		if n > 0 && k <= prev {
			t.Fatalf("scan out of order at %d", k)
		}
		prev = k
		n++
		return true
	})
	if n != 5000 {
		t.Fatalf("scan visited %d", n)
	}
}

func BenchmarkGet(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, 1_000_000, 1)
	ix := New(DefaultConfig())
	if err := ix.BulkLoad(keys, keys); err != nil {
		b.Fatal(err)
	}
	probes := dataset.Shuffled(keys, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Get(probes[i%len(probes)])
	}
}

func BenchmarkInsert(b *testing.B) {
	all := dataset.Generate(dataset.YCSBNormal, 2_000_000, 1)
	load, ins := dataset.Split(all, 1_000_000)
	ix := New(DefaultConfig())
	if err := ix.BulkLoad(load, load); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := ins[i%len(ins)]
		ix.Insert(k, k)
	}
}
