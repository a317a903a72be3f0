package indextest

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
)

// RunConcurrent checks an index that takes concurrent writers (Table I's
// last column) under goroutines that write while others read: writers
// on disjoint keys, readers of keys being overwritten, scans and size
// reports beside inserts, and, where the index deletes, readers of keys
// beside deleters. Run it under -race: the race detector is half the
// assertion. Give it a small configuration so the writes reach the
// index's retrain and compaction paths.
func RunConcurrent(t *testing.T, name string, f Factory) {
	t.Run(name+"/concurrent-writers", func(t *testing.T) { testConcurrentWriters(t, f) })
	t.Run(name+"/readers-under-overwrites", func(t *testing.T) { testReadersUnderOverwrites(t, f) })
	if index.CapsOf(f()).Range {
		t.Run(name+"/scan-under-inserts", func(t *testing.T) { testScanUnderInserts(t, f) })
	}
	t.Run(name+"/sizes-under-inserts", func(t *testing.T) { testSizesUnderInserts(t, f) })
	if index.CapsOf(f()).Delete {
		t.Run(name+"/readers-beside-deletes", func(t *testing.T) { testReadersBesideDeletes(t, f) })
	}
}

// stripes runs op(i) for every i < n from workers goroutines, goroutine w
// taking i = w, w+workers, ..., and reports the first error.
func stripes(n, workers int, op func(i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := op(i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// testConcurrentWriters: eight writers insert disjoint stripes of a
// shuffled key set into an empty index; none is lost, each reads its own
// value, and a full scan returns them all in order.
func testConcurrentWriters(t *testing.T, f Factory) {
	idx := f()
	keys := dataset.Generate(dataset.YCSBUniform, 40000, 2)
	order := dataset.Shuffled(keys, 3)
	if err := stripes(len(order), 8, func(i int) error { return idx.Insert(order[i], order[i]) }); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if idx.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", idx.Len(), len(keys))
	}
	for _, k := range keys {
		if v, ok := idx.Get(k); !ok || v != k {
			t.Fatalf("get(%d) = %d,%v", k, v, ok)
		}
	}
	if !index.CapsOf(idx).Range {
		return
	}
	n := 0
	index.Scan(index.Seams(idx).Range, 0, 0, func(k, v uint64) bool {
		if k != keys[n] || v != k {
			t.Fatalf("scan entry %d = (%d,%d), want key %d", n, k, v, keys[n])
		}
		n++
		return true
	})
	if n != len(keys) {
		t.Fatalf("scan visited %d of %d", n, len(keys))
	}
}

// testReadersUnderOverwrites: a writer flips every loaded key's value
// between k and k+1 while readers Get random loaded keys. A reader must
// see one of the two values, never a miss, and Len must not move, since
// an overwrite adds no key.
func testReadersUnderOverwrites(t *testing.T, f Factory) {
	idx := f()
	keys := dataset.Generate(dataset.YCSBUniform, 8000, 5)
	if err := idx.BulkLoad(keys, keys); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(x uint64) {
			defer wg.Done()
			for !stop.Load() {
				x = x*6364136223846793005 + 1442695040888963407
				k := keys[x%uint64(len(keys))]
				v, ok := idx.Get(k)
				if !ok {
					t.Errorf("key %d vanished under an overwrite", k)
					return
				}
				if v != k && v != k+1 {
					t.Errorf("key %d: value %d was never written", k, v)
					return
				}
				if n := idx.Len(); n != len(keys) {
					t.Errorf("Len = %d under overwrites, want %d", n, len(keys))
					return
				}
			}
		}(uint64(r + 1))
	}
	for round := 0; round < 2 && !t.Failed(); round++ {
		for _, k := range keys {
			if err := idx.Insert(k, k+1); err != nil {
				t.Error(err)
				break
			}
			if err := idx.Insert(k, k); err != nil {
				t.Error(err)
				break
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}
	if idx.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", idx.Len(), len(keys))
	}
}

// testScanUnderInserts: writers insert a second key set into a loaded
// index while a scanner walks the whole index. Every pass is in order and
// returns every loaded key with its value.
func testScanUnderInserts(t *testing.T, f Factory) {
	idx := f()
	load, inserts := dataset.Split(dataset.Generate(dataset.YCSBUniform, 40000, 45), 20000)
	if err := idx.BulkLoad(load, load); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := stripes(len(inserts), 4, func(i int) error { return idx.Insert(inserts[i], inserts[i]) }); err != nil {
			t.Errorf("insert: %v", err)
		}
	}()
	for pass := 0; pass < 3; pass++ {
		next, prev, first := 0, uint64(0), true
		index.Scan(index.Seams(idx).Range, 0, 0, func(k, v uint64) bool {
			if !first && k <= prev {
				t.Errorf("scan pass %d: key %d after %d", pass, k, prev)
				return false
			}
			if v != k {
				t.Errorf("scan pass %d: key %d has value %d", pass, k, v)
				return false
			}
			prev, first = k, false
			if next < len(load) && k == load[next] {
				next++
			}
			return true
		})
		if next != len(load) {
			t.Errorf("scan pass %d saw %d of %d loaded keys", pass, next, len(load))
			break
		}
	}
	wg.Wait()
	if idx.Len() != len(load)+len(inserts) {
		t.Fatalf("Len = %d, want %d", idx.Len(), len(load)+len(inserts))
	}
}

// testSizesUnderInserts: Sizes, and the depth and retrain counters where
// the index reports them, walk structure that a writer is changing; they
// must hold off that writer (the race detector is the assertion).
func testSizesUnderInserts(t *testing.T, f Factory) {
	idx := f()
	keys := dataset.Generate(dataset.YCSBUniform, 20000, 7)
	var done atomic.Bool
	go func() {
		defer done.Store(true)
		for _, k := range dataset.Shuffled(keys, 8) {
			if err := idx.Insert(k, k); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for !done.Load() {
		idx.Sizes()
		index.DepthOf(idx)
		index.RetrainStatsOf(idx)
	}
	if sz := idx.Sizes(); sz.Keys == 0 {
		t.Fatal("Sizes after the inserts reports no keys")
	}
}

// testReadersBesideDeletes: deleters remove every odd-positioned key
// while readers Get the even-positioned ones, which must stay present
// with their values; afterwards exactly the odd keys are gone.
func testReadersBesideDeletes(t *testing.T, f Factory) {
	idx := f()
	keys := dataset.Generate(dataset.YCSBUniform, 8000, 9)
	if err := idx.BulkLoad(keys, keys); err != nil {
		t.Fatal(err)
	}
	del := index.Seams(idx).Delete
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(x uint64) {
			defer wg.Done()
			for !stop.Load() {
				x = x*6364136223846793005 + 1442695040888963407
				k := keys[x%uint64(len(keys))&^1]
				if v, ok := idx.Get(k); !ok || v != k {
					t.Errorf("kept key %d read (%d,%v) beside deletes", k, v, ok)
					return
				}
			}
		}(uint64(r + 1))
	}
	err := stripes(len(keys)/2, 4, func(i int) error {
		if k := keys[2*i+1]; !del.Delete(k) {
			return fmt.Errorf("Delete(%d) of a present key returned false", k)
		}
		return nil
	})
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	if idx.Len() != len(keys)/2 {
		t.Fatalf("Len = %d, want %d", idx.Len(), len(keys)/2)
	}
	for i, k := range keys {
		if v, ok := idx.Get(k); ok != (i%2 == 0) || (ok && v != k) {
			t.Fatalf("get(%d) at position %d = %d,%v after deletes", k, i, v, ok)
		}
	}
}
