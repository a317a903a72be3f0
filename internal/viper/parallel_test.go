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
	"learnedpieces/internal/dataset"
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

// TestMultiGet: a batch with more positions than the offset
// sort's packed words hold is answered in pieces, its results aligned
// across the cut.
func TestMultiGet(t *testing.T) {
	s := newStore(btree.New())
	keys := dataset.Generate(dataset.OSMLike, 3000, 3)
	if err := s.BulkPut(keys, value(1)); err != nil {
		t.Fatal(err)
	}
	huge := make([]uint64, maxScanBatch+len(keys))
	copy(huge[maxScanBatch-5:], keys)
	all := s.MultiGet(huge)
	if len(all) != len(huge) {
		t.Fatalf("MultiGet of %d keys returned %d results", len(huge), len(all))
	}
	for i := maxScanBatch - 6; i < len(huge); i++ { // the padding before is key 0, absent
		if got, _ := s.Get(huge[i]); !bytes.Equal(all[i], got) {
			t.Fatalf("huge batch: position %d (key %d) disagrees with Get", i, huge[i])
		}
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
	if len(logPages(s)) < 4 {
		t.Fatalf("want a multi-page log, got %d pages", len(logPages(s)))
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

// TestBulkPutOverLoggedKeys: a BulkPut into a store whose log already
// holds records keeps those records' keys live, so Get and Len answer
// the same before a Recover as after it.
func TestBulkPutOverLoggedKeys(t *testing.T) {
	s := newStore(btree.New())
	v := value(5)
	if err := s.Put(5, v); err != nil {
		t.Fatal(err)
	}
	if err := s.BulkPut([]uint64{100, 200}, value(9)); err != nil {
		t.Fatal(err)
	}
	for round := range 2 {
		if got, ok := s.Get(5); !ok || !bytes.Equal(got, v) || s.Len() != 3 {
			t.Fatalf("round %d: Get(5) = %v, Len %d; want the Put's value and 3", round, ok, s.Len())
		}
		if err := s.Recover(btree.New()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBulkPutLayout pins what BulkPut puts on the device: page p of a load
// holds keys[p·perPage : (p+1)·perPage] back to back behind its stamp,
// written with one device write and one flush per page after one free
// stamp on the first page, which carries the load's reservation, the same
// bytes at the same offsets for any worker count, and the log goes on
// right behind the last record. The two reads are the page walk's, of the
// empty region's first two stamps.
func TestBulkPutLayout(t *testing.T) {
	const recLen = recordHeader + DefaultValueSize
	const perPage = (PageSize - stampSize) / recLen
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

	if got, want := s.region.Allocated(), int64(nPages)*PageSize; got != want || len(logPages(s)) != nPages {
		t.Fatalf("allocated %d bytes in %d pages, want %d in %d", got, len(logPages(s)), want, nPages)
	}
	pages := logPages(s)
	if !slices.Equal(pages, logPages(par)) || !bytes.Equal(s.region.Snapshot()[:s.region.Allocated()], par.region.Snapshot()[:par.region.Allocated()]) {
		t.Fatal("loads with 1 and with 6 workers differ in pages or bytes")
	}
	wantLines := spanLines(0, stampSize) // the reservation
	for i, k := range keys {
		off := offsetOf(t, s, k)
		if want := pages[i/perPage] + stampSize + int64(i%perPage)*recLen; off != want || offsetOf(t, par, k) != want {
			t.Fatalf("key %d of the load at %d (6 workers: %d), want %d", i, off, offsetOf(t, par, k), want)
		}
		if i%perPage == perPage-1 || i == len(keys)-1 {
			wantLines += spanLines(0, stampSize+(i%perPage+1)*recLen)
		}
	}
	for _, d := range []pmem.AccessStats{d, dPar} {
		if d.Writes != int64(nPages)+1 || d.Flushes != int64(nPages)+1 || d.LineWrites != wantLines || d.Reads != 2 {
			t.Fatalf("BulkPut cost %+v, want %d writes, %d flushes, %d lines, two reads", d, nPages+1, nPages+1, wantLines)
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
	// earlier records stay where they were, and recovery finds both. The
	// log also holds an overwritten key and a deleted one that the load
	// writes again: after recovery the load's value wins, and the deleted
	// key is live. The store answers the same before the recovery as
	// after it.
	s = newStore(btree.New())
	early := []uint64{3, 9, 27}
	earlyOffs := make([]int64, len(early))
	for i, k := range early {
		if err := s.Put(k, value(k)); err != nil {
			t.Fatal(err)
		}
		earlyOffs[i] = offsetOf(t, s, k)
	}
	overwritten, deleted := keys[0], keys[len(keys)/3]
	for _, k := range []uint64{overwritten, overwritten, deleted} {
		if err := s.Put(k, value(k)); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := s.Delete(deleted); !ok || err != nil {
		t.Fatalf("Delete(%d) = %v, %v", deleted, ok, err)
	}
	if err := s.BulkPut(keys, v); err != nil {
		t.Fatal(err)
	}
	for i, k := range early {
		if got, live := s.readRecord(nil, earlyOffs[i]); !live || !bytes.Equal(got, value(k)) {
			t.Fatalf("record of key %d changed under a later BulkPut", k)
		}
	}
	probe := append(slices.Clone(early), keys[len(keys)/2], overwritten, deleted)
	answers := func() (n int, vals []string) {
		for _, k := range probe {
			got, ok := s.Get(k)
			vals = append(vals, fmt.Sprintf("%q %v", bytes.TrimRight(got, "\x00"), ok))
		}
		return s.Len(), vals
	}
	nLoaded, loaded := answers()
	if err := s.Recover(btree.New()); err != nil {
		t.Fatal(err)
	}
	if n, recovered := answers(); n != nLoaded || !slices.Equal(recovered, loaded) {
		t.Fatalf("after BulkPut: Len %d, Gets %v; after Recover: Len %d, Gets %v", nLoaded, loaded, n, recovered)
	}
	if s.Len() != len(keys)+len(early) {
		t.Fatalf("recovered %d keys, want %d", s.Len(), len(keys)+len(early))
	}
	for i, k := range early {
		if got := offsetOf(t, s, k); got != earlyOffs[i] {
			t.Fatalf("recovered key %d at %d, want %d", k, got, earlyOffs[i])
		}
	}
	for _, k := range []uint64{keys[len(keys)/2], overwritten, deleted} {
		if got, ok := s.Get(k); !ok || !bytes.Equal(got, v) {
			t.Fatalf("loaded key %d = %q, %v after recovery, want the load's value", k, got, ok)
		}
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
