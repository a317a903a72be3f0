// Package indextest is a conformance suite shared by every index
// implementation: basic get/insert/update semantics, bulk load, ordered
// scans, deletes, and randomized model-based checks against a reference
// map. Each index package runs it from its own tests.
package indextest

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
)

// Factory builds an empty index under test.
type Factory func() index.Index

// RunAll runs every applicable conformance test, gating the optional
// parts on the capability descriptor of a probe instance (index.CapsOf,
// which honours wrappers that mask capabilities via index.Capser).
func RunAll(t *testing.T, name string, f Factory) {
	t.Run(name+"/empty", func(t *testing.T) { testEmpty(t, f) })
	t.Run(name+"/insert-get", func(t *testing.T) { testInsertGet(t, f) })
	t.Run(name+"/update", func(t *testing.T) { testUpdate(t, f) })
	RunUpsert(t, name, f)
	t.Run(name+"/random-model", func(t *testing.T) { testRandomModel(t, f) })
	t.Run(name+"/caps", func(t *testing.T) { testCaps(t, f) })
	t.Run(name+"/bulkload", func(t *testing.T) { testBulkLoad(t, f) })
	t.Run(name+"/bulk-then-insert", func(t *testing.T) { testBulkThenInsert(t, f) })
	RunScanConformance(t, name, f)
	if index.CapsOf(f()).Delete {
		t.Run(name+"/delete", func(t *testing.T) { testDelete(t, f) })
	}
	t.Run(name+"/sizes", func(t *testing.T) { testSizes(t, f) })
}

// RunReadOnly runs the conformance tests applicable to read-only indexes
// (RMI, RadixSpline): bulk load, lookups, scans and sizes.
func RunReadOnly(t *testing.T, name string, f Factory) {
	t.Run(name+"/empty", func(t *testing.T) { testEmpty(t, f) })
	t.Run(name+"/bulkload", func(t *testing.T) { testBulkLoad(t, f) })
	t.Run(name+"/readonly-insert", func(t *testing.T) {
		idx := f()
		if err := idx.Insert(1, 1); err != index.ErrReadOnly {
			t.Fatalf("Insert on read-only index returned %v, want ErrReadOnly", err)
		}
	})
	RunUpsert(t, name, f)
	t.Run(name+"/bulk-get-all-kinds", func(t *testing.T) {
		for _, kind := range dataset.Kinds() {
			idx := f()
			keys := dataset.Generate(kind, 20000, 5)
			if err := idx.BulkLoad(keys, keys); err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				if v, ok := idx.Get(k); !ok || v != k {
					t.Fatalf("%v: get(%d) = %d,%v", kind, k, v, ok)
				}
			}
			rng := rand.New(rand.NewSource(6))
			for i := 0; i < 1000; i++ {
				k := rng.Uint64()
				if contains(keys, k) {
					continue
				}
				if _, ok := idx.Get(k); ok {
					t.Fatalf("%v: absent key %d found", kind, k)
				}
			}
		}
	})
	t.Run(name+"/caps", func(t *testing.T) { testCaps(t, f) })
	RunScanConformance(t, name, f)
	t.Run(name+"/sizes", func(t *testing.T) { testSizes(t, f) })
}

// testCaps checks that the capability descriptor matches reality: every
// capability CapsOf reports true must be backed by a working interface,
// and a masked Range (reported false while the method exists) must
// visit nothing instead of returning wrong results. Concurrent Gets,
// which every index serves, run unconditionally.
func testCaps(t *testing.T, f Factory) {
	idx := f()
	caps := index.CapsOf(idx)
	keys := dataset.Generate(dataset.YCSBUniform, 1000, 81)
	if err := idx.BulkLoad(keys, keys); err != nil {
		t.Fatalf("bulk load failed: %v", err)
	}
	for _, k := range keys[:100] {
		if v, ok := idx.Get(k); !ok || v != k {
			t.Fatalf("get(%d) = %d,%v after load", k, v, ok)
		}
	}

	if caps.BatchGet {
		bg, ok := idx.(index.BatchGetter)
		if !ok {
			t.Fatal("caps report BatchGet but index.BatchGetter is not implemented")
		}
		// Mix of present keys and likely misses, larger than one lockstep
		// group so chunking is exercised; GetBatch must agree with Get on
		// every position and overwrite the garbage priming.
		probe := append([]uint64(nil), keys[:50]...)
		for i := 0; i < 20; i++ {
			probe = append(probe, uint64(i)*2+1)
		}
		vals := make([]uint64, len(probe))
		found := make([]bool, len(probe))
		for i := range vals {
			vals[i], found[i] = 999_999, i%2 == 0
		}
		bg.GetBatch(probe, vals, found)
		for i, k := range probe {
			wv, wok := idx.Get(k)
			if found[i] != wok || (wok && vals[i] != wv) {
				t.Fatalf("GetBatch[%d] key %d = (%d,%v), Get = (%d,%v)", i, k, vals[i], found[i], wv, wok)
			}
			if !wok && vals[i] != 0 {
				t.Fatalf("GetBatch[%d] miss left val %d, want 0", i, vals[i])
			}
		}
	} else if _, ok := idx.(index.BatchGetter); ok {
		t.Fatal("index.BatchGetter implemented but caps mask BatchGet")
	}

	if r, ok := idx.(index.Ranger); ok {
		visited := 0
		index.Scan(r, 0, 0, func(k, v uint64) bool { visited++; return true })
		if caps.Range && visited != len(keys) {
			t.Fatalf("caps report Range but full scan visited %d of %d", visited, len(keys))
		}
		if !caps.Range && visited != 0 {
			t.Fatalf("caps mask Range but scan visited %d entries", visited)
		}
	} else if caps.Range {
		t.Fatal("caps report Range but index.Ranger is not implemented")
	}

	if caps.Delete {
		d, ok := idx.(index.Deleter)
		if !ok {
			t.Fatal("caps report Delete but index.Deleter is not implemented")
		}
		if !d.Delete(keys[1]) {
			t.Fatal("advertised delete of a present key returned false")
		}
		if _, ok := idx.Get(keys[1]); ok {
			t.Fatal("deleted key still present")
		}
	}

	if caps.Depth {
		if d, ok := index.DepthOf(idx); !ok || d < 0 {
			t.Fatalf("caps report Depth but DepthOf = %v,%v", d, ok)
		}
	}
	if caps.Retrain {
		if c, ns, ok := index.RetrainStatsOf(idx); !ok || c < 0 || ns < 0 {
			t.Fatalf("caps report Retrain but RetrainStatsOf = %d,%d,%v", c, ns, ok)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += 4 {
				idx.Get(keys[i])
			}
		}(w)
	}
	wg.Wait()
	if caps.ConcurrentWrites {
		fresh := f()
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(keys); i += 4 {
					if err := fresh.Insert(keys[i], keys[i]); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("concurrent insert: %v", err)
			}
		}
		if fresh.Len() != len(keys) {
			t.Fatalf("concurrent inserts lost keys: Len = %d, want %d", fresh.Len(), len(keys))
		}
	}
}

func testEmpty(t *testing.T, f Factory) {
	idx := f()
	if idx.Len() != 0 {
		t.Fatalf("empty index Len = %d", idx.Len())
	}
	if _, ok := idx.Get(42); ok {
		t.Fatal("empty index returned a value")
	}
	if r, ok := idx.(index.Ranger); ok {
		called := false
		index.Scan(r, 0, 10, func(k, v uint64) bool { called = true; return true })
		if called {
			t.Fatal("scan over empty index visited entries")
		}
	}
}

func testInsertGet(t *testing.T, f Factory) {
	idx := f()
	keys := dataset.Generate(dataset.YCSBUniform, 2000, 11)
	order := dataset.Shuffled(keys, 12)
	for i, k := range order {
		if err := idx.Insert(k, k^0xABCD); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		if i%97 == 0 {
			// Spot check mid-stream.
			if v, ok := idx.Get(k); !ok || v != k^0xABCD {
				t.Fatalf("mid-stream get(%d) = %d,%v", k, v, ok)
			}
		}
	}
	if idx.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", idx.Len(), len(keys))
	}
	for _, k := range keys {
		v, ok := idx.Get(k)
		if !ok {
			t.Fatalf("key %d missing", k)
		}
		if v != k^0xABCD {
			t.Fatalf("key %d: value %d, want %d", k, v, k^0xABCD)
		}
	}
	// Absent keys.
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		k := rng.Uint64()
		if contains(keys, k) {
			continue
		}
		if _, ok := idx.Get(k); ok {
			t.Fatalf("absent key %d found", k)
		}
	}
}

func testUpdate(t *testing.T, f Factory) {
	idx := f()
	mustInsert(t, idx, 100, 1)
	mustInsert(t, idx, 100, 2)
	if idx.Len() != 1 {
		t.Fatalf("upsert changed Len to %d", idx.Len())
	}
	if v, _ := idx.Get(100); v != 2 {
		t.Fatalf("update lost: got %d", v)
	}
}

// RunUpsert checks InsertReplace, the write a store's Put is made of: an
// absent key reports false and grows Len by one, a present key reports
// true and leaves Len alone, either way the new value is what Get,
// GetBatch and a cursor opened at the key then see, and a deleted key is
// absent again. The key set is clustered (OSM-like) and includes both
// ends of the key space. Read-only indexes must refuse with ErrReadOnly.
func RunUpsert(t *testing.T, name string, f Factory) {
	t.Run(name+"/upsert", func(t *testing.T) { testUpsert(t, f) })
}

func testUpsert(t *testing.T, f Factory) {
	idx := f()
	if existed, err := f().InsertReplace(1, 1); err == index.ErrReadOnly {
		if existed {
			t.Fatal("read-only InsertReplace reported an existing key")
		}
		return
	}
	caps, seam := index.CapsOf(idx), index.Seams(idx)
	keys := dataset.SortedUnique(append(dataset.Generate(dataset.OSMLike, 900, 91), 0, ^uint64(0)))
	// Every third key goes in through the load path; the rest, both ends
	// of the key space among them, arrive as upserts of absent keys.
	var load []uint64
	for i := 1; i < len(keys); i += 3 {
		load = append(load, keys[i])
	}
	if err := idx.BulkLoad(load, load); err != nil {
		t.Fatalf("load: %v", err)
	}
	visible := func(k, want uint64) {
		t.Helper()
		if v, ok := idx.Get(k); !ok || v != want {
			t.Fatalf("Get(%d) = %d,%v after upsert, want %d", k, v, ok, want)
		}
		if caps.BatchGet {
			probe, vals, found := []uint64{k ^ 1, k, k}, make([]uint64, 3), make([]bool, 3)
			seam.Batch.GetBatch(probe, vals, found)
			if !found[1] || vals[1] != want || !found[2] || vals[2] != want {
				t.Fatalf("GetBatch(%d) = %v,%v after upsert, want %d", k, vals, found, want)
			}
		}
		if caps.Range {
			ck, cv := make([]uint64, 1), make([]uint64, 1)
			cur := seam.Range.Range(k)
			n := cur.Next(ck, cv)
			cur.Close()
			if n != 1 || ck[0] != k || cv[0] != want {
				t.Fatalf("cursor at %d yields (%d,%d) n=%d after upsert, want value %d", k, ck[0], cv[0], n, want)
			}
		}
	}
	upsert := func(k, v uint64, wantExisted bool) {
		t.Helper()
		before := idx.Len()
		existed, err := idx.InsertReplace(k, v)
		if err != nil || existed != wantExisted {
			t.Fatalf("InsertReplace(%d) = %v,%v, want existed=%v", k, existed, err, wantExisted)
		}
		if want := before + 1; !existed && idx.Len() != want {
			t.Fatalf("InsertReplace(%d) of an absent key: Len %d -> %d", k, before, idx.Len())
		}
		if existed && idx.Len() != before {
			t.Fatalf("InsertReplace(%d) of a present key: Len %d -> %d", k, before, idx.Len())
		}
		visible(k, v)
	}
	for _, k := range dataset.Shuffled(keys, 92) {
		upsert(k, k^0x5A5A, contains(load, k))
	}
	if idx.Len() != len(keys) {
		t.Fatalf("Len = %d after upserting every key, want %d", idx.Len(), len(keys))
	}
	for _, k := range dataset.Shuffled(keys, 93) {
		upsert(k, k+7, true)
	}
	if !caps.Delete {
		return
	}
	for i, k := range keys {
		if i%4 != 0 && i != len(keys)-1 {
			continue
		}
		if !seam.Delete.Delete(k) {
			t.Fatalf("Delete(%d) = false", k)
		}
		upsert(k, k+9, false)
	}
	if idx.Len() != len(keys) {
		t.Fatalf("Len = %d after delete/upsert rounds, want %d", idx.Len(), len(keys))
	}
}

func testBulkLoad(t *testing.T, f Factory) {
	for _, n := range []int{0, 1, 2, 63, 64, 65, 5000} {
		idx := f()
		keys := dataset.Generate(dataset.OSMLike, n, 21)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(i) + 7
		}
		if err := idx.BulkLoad(keys, vals); err != nil {
			t.Fatalf("n=%d: bulk load: %v", n, err)
		}
		if idx.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, idx.Len())
		}
		for i, k := range keys {
			v, ok := idx.Get(k)
			if !ok || v != vals[i] {
				t.Fatalf("n=%d: get(%d) = %d,%v want %d", n, k, v, ok, vals[i])
			}
		}
	}
}

func testBulkThenInsert(t *testing.T, f Factory) {
	idx := f()
	all := dataset.Generate(dataset.YCSBNormal, 4000, 31)
	load, ins := dataset.Split(all, 1000)
	if err := idx.BulkLoad(load, load); err != nil {
		t.Fatalf("bulk load: %v", err)
	}
	for _, k := range dataset.Shuffled(ins, 32) {
		if err := idx.Insert(k, k); err != nil {
			if err == index.ErrReadOnly {
				t.Skip("read-only index")
			}
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	if idx.Len() != len(all) {
		t.Fatalf("Len = %d, want %d", idx.Len(), len(all))
	}
	for _, k := range all {
		if v, ok := idx.Get(k); !ok || v != k {
			t.Fatalf("get(%d) = %d,%v", k, v, ok)
		}
	}
}

func testDelete(t *testing.T, f Factory) {
	idx := f()
	keys := dataset.Generate(dataset.YCSBUniform, 1000, 51)
	for _, k := range keys {
		mustInsert(t, idx, k, k)
	}
	d := idx.(index.Deleter)
	// Delete every other key.
	for i, k := range keys {
		if i%2 == 0 {
			if !d.Delete(k) {
				t.Fatalf("delete(%d) = false", k)
			}
		}
	}
	if idx.Len() != len(keys)/2 {
		t.Fatalf("Len after deletes = %d", idx.Len())
	}
	for i, k := range keys {
		_, ok := idx.Get(k)
		if (i%2 == 0) == ok {
			t.Fatalf("key %d presence = %v after deletes", k, ok)
		}
	}
	// Deleting absent keys reports false.
	if d.Delete(keys[0]) {
		t.Fatal("double delete returned true")
	}
	// Reinsert works.
	mustInsert(t, idx, keys[0], 999)
	if v, ok := idx.Get(keys[0]); !ok || v != 999 {
		t.Fatalf("reinsert failed: %d,%v", v, ok)
	}
}

func testSizes(t *testing.T, f Factory) {
	idx := f()
	keys := dataset.Generate(dataset.YCSBUniform, 2000, 61)
	if err := idx.BulkLoad(keys, keys); err != nil {
		t.Fatal(err)
	}
	s := idx.Sizes()
	if s.Keys < int64(len(keys))*8 {
		t.Fatalf("Keys size %d below raw key bytes", s.Keys)
	}
	if s.Structure < 0 || s.Total() <= 0 {
		t.Fatalf("implausible sizes %+v", s)
	}
}

// testRandomModel drives the index with a random op stream and checks
// every response against a reference map.
func testRandomModel(t *testing.T, f Factory) {
	idx := f()
	ref := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(71))
	d, canDelete := idx.(index.Deleter)
	keyspace := make([]uint64, 300)
	for i := range keyspace {
		keyspace[i] = rng.Uint64()
	}
	for op := 0; op < 20000; op++ {
		k := keyspace[rng.Intn(len(keyspace))]
		switch rng.Intn(4) {
		case 0: // insert/update
			v := rng.Uint64()
			if err := idx.Insert(k, v); err != nil {
				t.Fatalf("op %d: insert: %v", op, err)
			}
			ref[k] = v
		case 1: // the same write, asking whether the key existed
			v := rng.Uint64()
			existed, err := idx.InsertReplace(k, v)
			if _, want := ref[k]; err != nil || existed != want {
				t.Fatalf("op %d: InsertReplace(%d) = %v,%v, want existed=%v", op, k, existed, err, want)
			}
			ref[k] = v
		case 2: // get
			v, ok := idx.Get(k)
			rv, rok := ref[k]
			if ok != rok || (ok && v != rv) {
				t.Fatalf("op %d: get(%d) = (%d,%v), want (%d,%v)", op, k, v, ok, rv, rok)
			}
		case 3: // delete
			if !canDelete {
				continue
			}
			got := d.Delete(k)
			_, want := ref[k]
			if got != want {
				t.Fatalf("op %d: delete(%d) = %v, want %v", op, k, got, want)
			}
			delete(ref, k)
		}
		if op%5000 == 4999 && idx.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, ref = %d", op, idx.Len(), len(ref))
		}
	}
	if idx.Len() != len(ref) {
		t.Fatalf("final Len = %d, ref = %d", idx.Len(), len(ref))
	}
	for k, rv := range ref {
		if v, ok := idx.Get(k); !ok || v != rv {
			t.Fatalf("final get(%d) = (%d,%v), want %d", k, v, ok, rv)
		}
	}
}

func mustInsert(t *testing.T, idx index.Index, k, v uint64) {
	t.Helper()
	if err := idx.Insert(k, v); err != nil {
		t.Fatalf("insert(%d): %v", k, err)
	}
}

func contains(sorted []uint64, k uint64) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= k })
	return i < len(sorted) && sorted[i] == k
}
