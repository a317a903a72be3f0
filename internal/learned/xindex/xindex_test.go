package xindex

import (
	"sync"
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/indextest"
)

// small is a configuration where a few thousand writes retrain and
// compact often.
func small() index.Index { return New(Config{GroupSize: 256, BufferThreshold: 32, SegLen: 64}) }

func TestConformance(t *testing.T) { indextest.Run(t, "xindex", small) }

// TestConcurrentConformance runs the concurrent streams at the small
// configuration, where the writes reach retrain and compaction.
func TestConcurrentConformance(t *testing.T) {
	indextest.Run(t, "xindex", small, indextest.Concurrent...)
}

func TestCompactionAndSplit(t *testing.T) {
	ix := New(Config{GroupSize: 128, BufferThreshold: 16, SegLen: 32})
	keys := dataset.Generate(dataset.YCSBUniform, 5000, 21)
	for _, k := range dataset.Shuffled(keys, 22) {
		if err := ix.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if ix.GroupCount() < 4 {
		t.Fatalf("groups never split: %d", ix.GroupCount())
	}
	count, ns := ix.RetrainStats()
	if count == 0 || ns <= 0 {
		t.Fatalf("compaction stats missing: %d/%d", count, ns)
	}
	for _, k := range keys {
		if v, ok := ix.Get(k); !ok || v != k {
			t.Fatalf("get(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	ix := New(Config{GroupSize: 512, BufferThreshold: 64, SegLen: 64})
	all := dataset.Generate(dataset.YCSBUniform, 40000, 23)
	load, ins := dataset.Split(all, 20000)
	if err := ix.BulkLoad(load, load); err != nil {
		t.Fatal(err)
	}
	const writers = 4
	var wg sync.WaitGroup
	// Writers insert disjoint stripes.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ins); i += writers {
				if err := ix.Insert(ins[i], ins[i]); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(w)
	}
	// Readers hammer the loaded keys; loaded keys must always be visible.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; i < len(load); i += 4 {
				if v, ok := ix.Get(load[i]); !ok || v != load[i] {
					t.Errorf("reader lost key %d (%d,%v)", load[i], v, ok)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if ix.Len() != len(all) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(all))
	}
	for _, k := range all {
		if v, ok := ix.Get(k); !ok || v != k {
			t.Fatalf("get(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestWritesVisibleDuringCompaction(t *testing.T) {
	// Tiny threshold makes nearly every insert trigger a compaction; the
	// temp buffer must keep concurrent upserts visible.
	ix := New(Config{GroupSize: 64, BufferThreshold: 2, SegLen: 16})
	for i := uint64(1); i <= 2000; i++ {
		if err := ix.Insert(i, i*3); err != nil {
			t.Fatal(err)
		}
		if v, ok := ix.Get(i); !ok || v != i*3 {
			t.Fatalf("get(%d) right after insert = %d,%v", i, v, ok)
		}
	}
}

func TestDeleteThenScan(t *testing.T) {
	ix := New(Config{GroupSize: 128, BufferThreshold: 16})
	keys := dataset.Generate(dataset.Sequential, 1000, 0)
	if err := ix.BulkLoad(keys, keys); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(keys); i += 3 {
		if !ix.Delete(keys[i]) {
			t.Fatalf("delete(%d)", keys[i])
		}
	}
	seen := 0
	index.Scan(ix, 0, 0, func(k, v uint64) bool {
		if (k-1)%3 == 0 {
			t.Fatalf("deleted key %d visible in scan", k)
		}
		seen++
		return true
	})
	if want := len(keys) - (len(keys)+2)/3; seen != want {
		t.Fatalf("scan saw %d, want %d", seen, want)
	}
}
