package finedex

import (
	"sync"
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/indextest"
)

func TestConformance(t *testing.T) {
	indextest.RunAll(t, "finedex", func() index.Index {
		return New(Config{Eps: 16, BinCap: 16, BinFanout: 4, MaxDepth: 2})
	})
}

// TestConcurrentConformance runs the concurrent-writer checks at the
// small configuration, where the writes retrain and compact often.
func TestConcurrentConformance(t *testing.T) {
	indextest.RunConcurrent(t, "finedex", func() index.Index {
		return New(Config{Eps: 16, BinCap: 16, BinFanout: 4, MaxDepth: 2})
	})
}

func TestLevelBinsSplit(t *testing.T) {
	ix := New(Config{Eps: 16, BinCap: 8, BinFanout: 4, MaxDepth: 3})
	keys := dataset.Generate(dataset.YCSBNormal, 2000, 41)
	load, inserts := dataset.Split(keys, 1500)
	if err := ix.BulkLoad(load, load); err != nil {
		t.Fatal(err)
	}
	for _, k := range dataset.Shuffled(inserts, 42) {
		if err := ix.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	// With tiny bins, splits (level bins) must have happened somewhere.
	split := false
	for _, s := range ix.tab.Load().segs {
		s.root.mu.Lock()
		if s.root.children != nil {
			split = true
		}
		s.root.mu.Unlock()
	}
	if !split {
		t.Fatal("no bin ever split into level bins")
	}
	for _, k := range keys {
		if v, ok := ix.Get(k); !ok || v != k {
			t.Fatalf("get(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestSegmentRetrainAbsorbsBins(t *testing.T) {
	ix := New(Config{Eps: 16, BinCap: 16})
	keys := dataset.Generate(dataset.YCSBUniform, 20000, 43)
	load, inserts := dataset.Split(keys, 15000)
	if err := ix.BulkLoad(load, load); err != nil {
		t.Fatal(err)
	}
	for _, k := range dataset.Shuffled(inserts, 44) {
		if err := ix.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	count, ns := ix.RetrainStats()
	if count == 0 || ns <= 0 {
		t.Fatalf("no segment retrain: %d/%d", count, ns)
	}
	if ix.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(keys))
	}
	for _, k := range keys {
		if _, ok := ix.Get(k); !ok {
			t.Fatalf("key %d lost across retrains", k)
		}
	}
}

func TestConcurrentFineGrainedWrites(t *testing.T) {
	ix := New(Config{Eps: 32, BinCap: 32})
	all := dataset.Generate(dataset.YCSBUniform, 40000, 45)
	load, inserts := dataset.Split(all, 20000)
	if err := ix.BulkLoad(load, load); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(inserts); i += workers {
				if err := ix.Insert(inserts[i], inserts[i]); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(w)
	}
	// Concurrent readers over the loaded keys.
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
	// A concurrent scanner: cursors cross segments while bins split and
	// segments retrain, and every loaded key must come back in order.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for pass := 0; pass < 3; pass++ {
			next, prev, first := 0, uint64(0), true
			index.Scan(ix, 0, 0, func(k, v uint64) bool {
				if !first && k <= prev {
					t.Errorf("scan: key %d after %d", k, prev)
					return false
				}
				prev, first = k, false
				if next < len(load) && k == load[next] {
					next++
				}
				return true
			})
			if next != len(load) {
				t.Errorf("scan %d saw %d of %d loaded keys", pass, next, len(load))
				return
			}
		}
	}()
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

func TestDeleteBaseAndBinKeys(t *testing.T) {
	ix := New(Config{Eps: 16, BinCap: 16})
	keys := dataset.Generate(dataset.Sequential, 1000, 0)
	load, inserts := keys[:800], keys[800:]
	if err := ix.BulkLoad(load, load); err != nil {
		t.Fatal(err)
	}
	for _, k := range inserts {
		if err := ix.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	// Delete one base key and one bin key.
	if !ix.Delete(load[100]) || !ix.Delete(inserts[5]) {
		t.Fatal("delete failed")
	}
	if _, ok := ix.Get(load[100]); ok {
		t.Fatal("deleted base key visible")
	}
	if _, ok := ix.Get(inserts[5]); ok {
		t.Fatal("deleted bin key visible")
	}
	if ix.Delete(load[100]) {
		t.Fatal("double delete succeeded")
	}
	if ix.Len() != len(keys)-2 {
		t.Fatalf("Len = %d", ix.Len())
	}
	// Scan skips tombstones.
	seen := 0
	index.Scan(ix, 0, 0, func(k, v uint64) bool {
		if k == load[100] || k == inserts[5] {
			t.Fatalf("tombstoned key %d in scan", k)
		}
		seen++
		return true
	})
	if seen != len(keys)-2 {
		t.Fatalf("scan saw %d", seen)
	}
}

// TestRangeOpenAllocs: the pooled cursor copies a segment's bin entries
// into buffers it keeps and merges them over the base in place, so an
// open plus a 50-entry pull over a loaded index allocates nothing.
func TestRangeOpenAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	ix := New(Config{})
	keys := dataset.Generate(dataset.OSMLike, 20000, 9)
	if err := ix.BulkLoad(keys, keys); err != nil {
		t.Fatal(err)
	}
	starts := dataset.Shuffled(keys, 10)
	ks, vs := make([]uint64, 50), make([]uint64, 50)
	i := 0
	if a := testing.AllocsPerRun(100, func() {
		cur := ix.Range(starts[i%len(starts)])
		i++
		if cur.Next(ks, vs) == 0 {
			t.Fatal("empty pull")
		}
		cur.Close()
	}); a != 0 {
		t.Fatalf("a cursor open and a 50-entry pull allocates %v times, want 0", a)
	}
}
