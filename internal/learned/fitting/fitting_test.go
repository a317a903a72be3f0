package fitting

import (
	"math/rand"
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/indextest"
	"learnedpieces/internal/retrain"
)

func TestConformanceInplace(t *testing.T) {
	indextest.RunAll(t, "fiting-inp", func() index.Index {
		return New(Config{Mode: Inplace, Eps: 16, Reserve: 64})
	})
}

func TestConformanceBuffer(t *testing.T) {
	indextest.RunAll(t, "fiting-buf", func() index.Index {
		return New(Config{Mode: Buffer, Eps: 16, Reserve: 64})
	})
}

func TestRetrainSplitsLeaf(t *testing.T) {
	ix := New(Config{Mode: Buffer, Eps: 8, Reserve: 16})
	keys := dataset.Generate(dataset.OSMLike, 4000, 7)
	load, ins := dataset.Split(keys, 1000)
	if err := ix.BulkLoad(load, load); err != nil {
		t.Fatal(err)
	}
	before := ix.LeafCount()
	for _, k := range ins {
		if err := ix.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	count, ns := ix.RetrainStats()
	if count == 0 {
		t.Fatal("no retrains after filling buffers")
	}
	if ns <= 0 {
		t.Fatal("retrain time not recorded")
	}
	if ix.LeafCount() < before {
		t.Fatalf("leaf count shrank from %d to %d", before, ix.LeafCount())
	}
	for _, k := range keys {
		if v, ok := ix.Get(k); !ok || v != k {
			t.Fatalf("get(%d) = %d,%v after retrains", k, v, ok)
		}
	}
}

func TestInplaceReserveExhaustion(t *testing.T) {
	// A tiny reserve forces inplace retrains; data must survive.
	ix := New(Config{Mode: Inplace, Eps: 8, Reserve: 4})
	keys := dataset.Generate(dataset.YCSBNormal, 3000, 9)
	load, ins := dataset.Split(keys, 1500)
	if err := ix.BulkLoad(load, load); err != nil {
		t.Fatal(err)
	}
	for _, k := range dataset.Shuffled(ins, 10) {
		if err := ix.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(keys))
	}
	count, _ := ix.RetrainStats()
	if count == 0 {
		t.Fatal("expected retrains with reserve=4")
	}
	for _, k := range keys {
		if _, ok := ix.Get(k); !ok {
			t.Fatalf("key %d lost", k)
		}
	}
}

// TestRetrainReleasesDisplacedLeaf: a retrain's replacement leaves take
// over the displaced leaf's slot in ix.leaves, so after many retrains —
// inline, or built on a pool and installed at the drain — every leaf the
// slice still holds is one the inner tree reaches.
func TestRetrainReleasesDisplacedLeaf(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode Mode
		pool *retrain.Pool
	}{
		{"inline-inplace", Inplace, nil},
		{"inline-buffer", Buffer, nil},
		{"pool-buffer", Buffer, retrain.NewPool(1, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer tc.pool.Close()
			ix := New(Config{Mode: tc.mode, Eps: 32, Reserve: 64})
			ix.SetRetrainPool(tc.pool)
			keys := make([]uint64, 10000)
			for i := range keys {
				keys[i] = uint64(i) * 1000
			}
			if err := ix.BulkLoad(keys, keys); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 30000; i++ {
				k := uint64(rng.Int63n(1e7))
				if err := ix.Insert(k, k); err != nil {
					t.Fatal(err)
				}
			}
			ix.DrainRetrains()
			if n, _ := ix.RetrainStats(); n == 0 {
				t.Fatal("no retrains ran")
			}
			reached := map[uint64]bool{}
			index.Scan(ix.inner, 0, 0, func(_, id uint64) bool { reached[id] = true; return true })
			for id, l := range ix.leaves {
				if l != nil && !reached[uint64(id)] {
					t.Fatalf("ix.leaves[%d] is a displaced leaf (%d slots, %d reached)", id, len(ix.leaves), len(reached))
				}
			}
		})
	}
}

func TestInsertBelowFirstKey(t *testing.T) {
	ix := New(DefaultConfig())
	if err := ix.BulkLoad([]uint64{100, 200, 300}, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(5, 50); err != nil {
		t.Fatal(err)
	}
	if v, ok := ix.Get(5); !ok || v != 50 {
		t.Fatalf("get(5) = %d,%v", v, ok)
	}
	var first uint64
	index.Scan(ix, 0, 1, func(k, v uint64) bool { first = k; return true })
	if first != 5 {
		t.Fatalf("scan starts at %d, want 5", first)
	}
}
