package viper

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"learnedpieces/internal/btree"
	"learnedpieces/internal/cceh"
	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/learned/alex"
	"learnedpieces/internal/learned/pgm"
	"learnedpieces/internal/learned/xindex"
	"learnedpieces/internal/parallel"
	"learnedpieces/internal/pmem"
)

// forceWorkers pins the global fan-out for the duration of a test (the
// CI box may have a single core; the override still exercises the
// concurrent merge logic through goroutine interleaving).
func forceWorkers(t *testing.T, n int) {
	t.Helper()
	prev := parallel.SetWorkers(n)
	t.Cleanup(func() { parallel.SetWorkers(prev) })
}

// TestConcurrentPutLiveCount is the regression test for the Put
// live-count race: two writers inserting the same new key concurrently
// must not double-count it. Before Store.Put derived existence from
// index.Upserter (atomically with the insert), the unsynchronized
// Get-then-Insert pair let both writers observe the key as absent and
// liveLen ended up above the true key count. Run under -race in CI.
func TestConcurrentPutLiveCount(t *testing.T) {
	// Force real thread-level interleaving even on single-core CI boxes.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	keys := dataset.Generate(dataset.YCSBUniform, 1500, 11)
	idx := newFinedex()
	s := newStore(idx)
	const writers = 4
	var wg sync.WaitGroup
	// For every key, release a pack of writers at the same instant so
	// they race to insert the same *new* key. Each insert must be
	// counted exactly once.
	for _, k := range keys {
		start := make(chan struct{})
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(k uint64, w int) {
				defer wg.Done()
				v := make([]byte, 32)
				v[0] = byte(w)
				<-start
				if err := s.Put(k, v); err != nil {
					t.Errorf("put: %v", err)
				}
			}(k, w)
		}
		close(start)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if s.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d (live-count race)", s.Len(), len(keys))
	}
	if got := idx.Len(); got != len(keys) {
		t.Fatalf("index Len = %d, want %d", got, len(keys))
	}
}

// TestConcurrentPutMultiGetDelete exercises the full concurrent surface
// (Put, MultiGet, Delete) against a concurrent-write index under -race.
func TestConcurrentPutMultiGetDelete(t *testing.T) {
	keys := dataset.Generate(dataset.YCSBUniform, 8000, 12)
	s := newStore(newFinedex())
	for _, k := range keys[:4000] {
		if err := s.Put(k, value(k)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) { // writers: insert the second half
			defer wg.Done()
			for i := 4000 + w; i < len(keys); i += 2 {
				if err := s.Put(keys[i], value(keys[i])); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // deleter: remove a slice of the preloaded half
		defer wg.Done()
		for _, k := range keys[:1000] {
			if _, err := s.Delete(k); err != nil {
				t.Errorf("delete: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // batched reader over a stable slice
		defer wg.Done()
		batch := keys[2000:4000]
		for i := 0; i < 20; i++ {
			vals := s.MultiGet(batch)
			for j, v := range vals {
				if v == nil {
					t.Errorf("key %d lost during concurrent ops", batch[j])
					return
				}
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	want := len(keys) - 1000
	if s.Len() != want {
		t.Fatalf("Len = %d, want %d", s.Len(), want)
	}
}

func TestMultiGet(t *testing.T) {
	s := newStore(btree.New())
	keys := dataset.Generate(dataset.OSMLike, 3000, 3)
	for _, k := range keys {
		if err := s.Put(k, value(k)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Delete(keys[1]); err != nil {
		t.Fatal(err)
	}
	// Batch mixing present, deleted and absent keys, unsorted.
	batch := []uint64{keys[100], keys[1], 0xffff_ffff_ffff_fff0, keys[0], keys[2999]}
	vals := s.MultiGet(batch)
	if len(vals) != len(batch) {
		t.Fatalf("got %d results", len(vals))
	}
	for _, i := range []int{0, 3, 4} {
		if !bytes.Equal(vals[i], value(batch[i])) {
			t.Fatalf("batch[%d] = %q", i, vals[i])
		}
	}
	if vals[1] != nil {
		t.Fatal("deleted key returned a value")
	}
	if vals[2] != nil {
		t.Fatal("absent key returned a value")
	}
	// MultiGet agrees with Get over the full key set.
	all := s.MultiGet(keys)
	for i, k := range keys {
		got, ok := s.Get(k)
		if ok != (all[i] != nil) || (ok && !bytes.Equal(got, all[i])) {
			t.Fatalf("MultiGet disagrees with Get at key %d", k)
		}
	}
	// A batch with more positions than the offset sort's packed words
	// hold is answered in pieces: results stay aligned across the cut.
	huge := make([]uint64, maxScanBatch+len(keys))
	copy(huge[maxScanBatch-5:], keys)
	all = s.MultiGet(huge)
	if len(all) != len(huge) {
		t.Fatalf("MultiGet of %d keys returned %d results", len(huge), len(all))
	}
	for i := maxScanBatch - 6; i < len(huge); i++ { // the padding before is key 0, absent
		if got, _ := s.Get(huge[i]); !bytes.Equal(all[i], got) {
			t.Fatalf("huge batch: position %d (key %d) disagrees with Get", i, huge[i])
		}
	}
}

// TestMultiGetBothIndexPaths: MultiGet agrees with Get whether the index
// resolves the batch through its GetBatch seam (btree, alex, pgm with a
// flush in flight) or key by key (xindex, finedex), on a batch
// with duplicates, deleted and absent keys.
func TestMultiGetBothIndexPaths(t *testing.T) {
	keys := dataset.Generate(dataset.OSMLike, 2000, 8)
	for _, tc := range []struct {
		name  string
		idx   index.Index
		opts  []Option
		batch bool
	}{
		{"btree", btree.New(), nil, true},
		{"alex", alex.New(alex.DefaultConfig()), nil, true},
		{"pgm-async", pgm.New(pgm.Config{BaseSize: 8}), []Option{WithRetrainMode(RetrainAsync)}, true},
		{"xindex", xindex.New(xindex.DefaultConfig()), nil, false},
		{"finedex", newFinedex(), nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := tc.idx.(index.BatchGetter); ok != tc.batch {
				t.Fatalf("index has the batch seam = %v, want %v", ok, tc.batch)
			}
			s := Open(pmem.NewRegion(32<<20, pmem.None()), tc.idx, tc.opts...)
			defer s.Close()
			for _, k := range keys {
				if err := s.Put(k, value(k)); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range keys[:200] {
				if _, err := s.Delete(k); err != nil {
					t.Fatal(err)
				}
			}
			batch := append([]uint64{keys[500], 0xffff_ffff_ffff_fff0, keys[500]}, dataset.Shuffled(keys, 9)...)
			vals := s.MultiGet(batch)
			for i, k := range batch {
				got, ok := s.Get(k)
				if ok != (vals[i] != nil) || !bytes.Equal(got, vals[i]) {
					t.Fatalf("position %d (key %d): MultiGet %q, Get %q,%v", i, k, vals[i], got, ok)
				}
			}
			if vals[0] == nil || vals[1] != nil || !bytes.Equal(vals[0], vals[2]) {
				t.Fatalf("duplicate/absent lanes: %q %q %q", vals[0], vals[1], vals[2])
			}
		})
	}
}

// contents captures the full logical state of the store.
func contents(t *testing.T, s *Store, universe []uint64) map[uint64]string {
	t.Helper()
	out := make(map[uint64]string)
	for _, k := range universe {
		if v, ok := s.Get(k); ok {
			out[k] = string(v)
		}
	}
	return out
}

// buildMultiPageStore produces a deterministic store whose log spans
// several pages and contains overwrites and tombstones (including runs
// that straddle page boundaries).
func buildMultiPageStore(t *testing.T, region *pmem.Region) (*Store, []uint64) {
	t.Helper()
	s := Open(region, btree.New())
	keys := dataset.Generate(dataset.YCSBNormal, 6000, 21)
	big := make([]byte, 700) // ~6000*713B ≈ 4 pages per round
	for round := 0; round < 3; round++ {
		for i, k := range keys {
			copy(big, fmt.Sprintf("r%d-%d", round, i))
			if err := s.Put(k, big); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, k := range keys[1000:2000] {
		if _, err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys[1500:1700] { // revive some deleted keys
		if err := s.Put(k, []byte("revived")); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.pages) < 4 {
		t.Fatalf("want a multi-page log, got %d pages", len(s.pages))
	}
	return s, keys
}

// TestRecoverSerialParallelEquivalence asserts the property the parallel
// scan's chunk-ordered merge must preserve: serial and parallel Recover
// see identical key→value contents, including overwrites and tombstones
// spanning page boundaries.
func TestRecoverSerialParallelEquivalence(t *testing.T) {
	s, keys := buildMultiPageStore(t, pmem.NewRegion(64<<20, pmem.None()))
	want := contents(t, s, keys)

	forceWorkers(t, 1)
	if err := s.Recover(btree.New()); err != nil {
		t.Fatal(err)
	}
	serial := contents(t, s, keys)
	serialLen := s.Len()

	forceWorkers(t, 7) // deliberately not a divisor of the page count
	if err := s.Recover(btree.New()); err != nil {
		t.Fatal(err)
	}
	par := contents(t, s, keys)

	if len(serial) != len(want) {
		t.Fatalf("serial recovery lost state: %d vs %d keys", len(serial), len(want))
	}
	compareContents(t, want, serial, "serial recovery")
	compareContents(t, serial, par, "parallel vs serial recovery")
	if s.Len() != serialLen {
		t.Fatalf("Len diverged: %d vs %d", s.Len(), serialLen)
	}
}

// TestCompactSerialParallelEquivalence builds two identical stores and
// compacts one serially, one in parallel: contents must match each other
// and the pre-compaction state.
func TestCompactSerialParallelEquivalence(t *testing.T) {
	s1, keys := buildMultiPageStore(t, pmem.NewRegion(64<<20, pmem.None()))
	s2, _ := buildMultiPageStore(t, pmem.NewRegion(64<<20, pmem.None()))
	want := contents(t, s1, keys)

	forceWorkers(t, 1)
	if _, err := s1.Compact(btree.New()); err != nil {
		t.Fatal(err)
	}
	forceWorkers(t, 7)
	if _, err := s2.Compact(btree.New()); err != nil {
		t.Fatal(err)
	}
	compareContents(t, want, contents(t, s1, keys), "serial compaction")
	compareContents(t, want, contents(t, s2, keys), "parallel compaction")
	if s1.Len() != s2.Len() {
		t.Fatalf("Len diverged: %d vs %d", s1.Len(), s2.Len())
	}
	// And both logs still recover (in parallel) to the same state.
	if err := s2.Recover(btree.New()); err != nil {
		t.Fatal(err)
	}
	compareContents(t, want, contents(t, s2, keys), "recovery after parallel compaction")
}

// TestBulkPutParallelEquivalence checks the worker-pool load against the
// serial one.
func TestBulkPutParallelEquivalence(t *testing.T) {
	keys := dataset.Generate(dataset.OSMLike, 20000, 4)
	v := value(7)
	load := func(workers int) *Store {
		forceWorkers(t, workers)
		s := newStore(btree.New())
		if err := s.BulkPut(keys, v); err != nil {
			t.Fatal(err)
		}
		return s
	}
	serial := load(1)
	par := load(6)
	compareContents(t, contents(t, serial, keys), contents(t, par, keys), "parallel bulk put")
	if par.Len() != len(keys) {
		t.Fatalf("Len = %d", par.Len())
	}
	// Whole pages went to different workers; recovery must still resolve
	// every key.
	forceWorkers(t, 6)
	if err := par.Recover(btree.New()); err != nil {
		t.Fatal(err)
	}
	if par.Len() != len(keys) {
		t.Fatalf("recovered Len = %d", par.Len())
	}
}

// TestBulkPutLayout pins what BulkPut puts on the device: page p of a load
// holds keys[p·perPage : (p+1)·perPage] back to back, written with one
// device write and one flush per page, the same bytes at the same offsets
// for any worker count, and the log goes on right behind the last record.
func TestBulkPutLayout(t *testing.T) {
	const recLen = recordHeader + DefaultValueSize
	const perPage = PageSize / recLen
	keys := dataset.Generate(dataset.OSMLike, 3*perPage+1234, 4)
	nPages := (len(keys) + perPage - 1) / perPage
	v := value(7)
	load := func(workers int) (*Store, pmem.AccessStats) {
		forceWorkers(t, workers)
		s := newStore(btree.New())
		d := deviceDelta(s.region, func() {
			if err := s.BulkPut(keys, v); err != nil {
				t.Fatal(err)
			}
		})
		return s, d
	}
	s, d := load(1)
	par, dPar := load(6)

	if got, want := s.region.Allocated(), int64(nPages)*PageSize; got != want || len(s.pages) != nPages {
		t.Fatalf("allocated %d bytes in %d pages, want %d in %d", got, len(s.pages), want, nPages)
	}
	if !slices.Equal(s.pages, par.pages) || !bytes.Equal(s.region.Snapshot()[:s.region.Allocated()], par.region.Snapshot()[:par.region.Allocated()]) {
		t.Fatal("loads with 1 and with 6 workers differ in pages or bytes")
	}
	var wantLines int64
	for i, k := range keys {
		off := offsetOf(t, s, k)
		if want := s.pages[i/perPage] + int64(i%perPage)*recLen; off != want || offsetOf(t, par, k) != want {
			t.Fatalf("key %d of the load at %d (6 workers: %d), want %d", i, off, offsetOf(t, par, k), want)
		}
		if i%perPage == perPage-1 || i == len(keys)-1 {
			wantLines += spanLines(0, (i%perPage+1)*recLen)
		}
	}
	for _, d := range []pmem.AccessStats{d, dPar} {
		if d.Writes != int64(nPages) || d.Flushes != int64(nPages) || d.LineWrites != wantLines || d.Reads != 0 {
			t.Fatalf("BulkPut cost %+v, want %d writes, %d flushes, %d lines, no read", d, nPages, nPages, wantLines)
		}
	}

	// The next Put lands directly behind the last loaded record.
	if err := s.Put(1, v); err != nil {
		t.Fatal(err)
	}
	if got, want := offsetOf(t, s, 1), offsetOf(t, s, keys[len(keys)-1])+recLen; got != want {
		t.Fatalf("first Put after BulkPut at %d, want %d", got, want)
	}

	if err := s.BulkPut(keys, make([]byte, PageSize)); !errors.Is(err, ErrValueTooBig) {
		t.Fatalf("BulkPut of a value longer than a page = %v, want ErrValueTooBig", err)
	}

	// A load into a non-empty store goes behind what the log holds: the
	// earlier records stay where they were, and recovery finds both.
	s = newStore(btree.New())
	early := []uint64{3, 9, 27}
	earlyOffs := make([]int64, len(early))
	for i, k := range early {
		if err := s.Put(k, value(k)); err != nil {
			t.Fatal(err)
		}
		earlyOffs[i] = offsetOf(t, s, k)
	}
	if err := s.BulkPut(keys, v); err != nil {
		t.Fatal(err)
	}
	for i, k := range early {
		if got, live := s.readRecord(nil, earlyOffs[i]); !live || !bytes.Equal(got, value(k)) {
			t.Fatalf("record of key %d changed under a later BulkPut", k)
		}
	}
	if err := s.Recover(btree.New()); err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(keys)+len(early) {
		t.Fatalf("recovered %d keys, want %d", s.Len(), len(keys)+len(early))
	}
	for i, k := range early {
		if got := offsetOf(t, s, k); got != earlyOffs[i] {
			t.Fatalf("recovered key %d at %d, want %d", k, got, earlyOffs[i])
		}
	}
	if got, ok := s.Get(keys[len(keys)/2]); !ok || !bytes.Equal(got, v) {
		t.Fatal("a loaded key is lost after recovery")
	}
}

func compareContents(t *testing.T, want, got map[uint64]string, what string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d keys, want %d", what, len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: key %d = %q, want %q", what, k, got[k], v)
		}
	}
}

// TestScanCapabilityError: a store over an unordered index reports the
// missing scan capability up front instead of silently visiting nothing.
func TestScanCapabilityError(t *testing.T) {
	s := newStore(cceh.New())
	if err := s.Put(42, []byte("v")); err != nil {
		t.Fatal(err)
	}
	err := s.Range(0, 10, func(uint64, []byte) bool { t.Fatal("scan visited an entry"); return false })
	if err == nil {
		t.Fatal("Range over an unscannable index returned nil error")
	}
}
