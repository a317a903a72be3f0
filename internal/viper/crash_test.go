package viper

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"learnedpieces/internal/btree"
	"learnedpieces/internal/epoch"
	"learnedpieces/internal/pmem"
)

// reopen restores img into a fresh region and opens a store over it: a
// crash keeps the bytes and nothing else.
func reopen(img []byte) *Store {
	region := pmem.NewRegion(len(img), pmem.None())
	region.Restore(img)
	return Open(region, btree.New())
}

// checkState asserts that s holds exactly ref, and that its region's
// allocator counts exactly the chunks of the log and its free pages, each
// free page on the free list once.
func checkState(t *testing.T, what string, s *Store, ref map[uint64]string) {
	t.Helper()
	if s.Len() != len(ref) {
		t.Fatalf("%s: %d keys, want %d", what, s.Len(), len(ref))
	}
	for k, v := range ref {
		if got, ok := s.Get(k); !ok || !bytes.Equal(got, []byte(v)) {
			t.Fatalf("%s: get(%d) = %q,%v want %q", what, k, got, ok, v)
		}
	}
	n := 0
	if err := s.Range(0, 0, func(k uint64, v []byte) bool {
		if want, ok := ref[k]; !ok || string(v) != want {
			t.Fatalf("%s: Range delivered %d = %q, want %q (present %v)", what, k, v, want, ok)
		}
		n++
		return true
	}); err != nil || n != len(ref) {
		t.Fatalf("%s: Range delivered %d keys, %v; want %d", what, n, err, len(ref))
	}
	w := walkPages(s.region)
	if got, want := s.region.Allocated(), int64(len(w.log)+len(w.free))*PageSize; got != want {
		t.Fatalf("%s: %d bytes allocated, want %d for %d log and %d free pages", what, got, want, len(w.log), len(w.free))
	}
	if got := s.region.FreeChunks(PageSize); got != len(w.free) {
		t.Fatalf("%s: %d pages on the free list, want the %d stamped free", what, got, len(w.free))
	}
}

// drainFrees advances the epoch until every page free Compact retired
// has run.
func drainFrees() {
	for range 3 {
		epoch.Advance()
	}
}

// TestCrashRecoveryAtRandomPoints is a crash-consistency property test:
// apply a random op stream with the odd compaction, snapshot the PMem at
// arbitrary points ("crash"), restore each image into a fresh region,
// open a store over it, and check the opened state equals the reference
// state at the snapshot moment.
func TestCrashRecoveryAtRandomPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	region := pmem.NewRegion(64<<20, pmem.None())
	store := Open(region, btree.New())
	ref := make(map[uint64]string)

	type snap struct {
		mem []byte
		ref map[uint64]string
	}
	var snaps []snap

	keyspace := func() uint64 { return uint64(rng.Intn(500) + 1) }
	for op := 0; op < 4000; op++ {
		switch rng.Intn(5) {
		case 0, 1, 2: // put
			k := keyspace()
			v := fmt.Sprintf("v%d-%d", k, op)
			if err := store.Put(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
			ref[k] = v
		case 3: // delete
			k := keyspace()
			_, want := ref[k]
			got, err := store.Delete(k)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("op %d: delete(%d) = %v, want %v", op, k, got, want)
			}
			delete(ref, k)
		case 4:
			if rng.Intn(40) == 0 {
				if _, err := store.Compact(btree.New()); err != nil {
					t.Fatal(err)
				}
				if rng.Intn(2) == 0 {
					drainFrees()
				}
			}
			if rng.Intn(10) == 0 && len(snaps) < 8 {
				snaps = append(snaps, snap{mem: region.Snapshot(), ref: maps.Clone(ref)})
			}
		}
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots taken; adjust probabilities")
	}

	for i, s := range snaps {
		checkState(t, fmt.Sprintf("snapshot %d", i), reopen(s.mem), s.ref)
	}
}

// fillPages puts 800-byte values under keys 1..300, overwriting as it
// cycles, from the value numbered from on, until the store has rolled over
// to a new page pages times; ref follows. It returns the next value number.
func fillPages(t *testing.T, s *Store, ref map[uint64]string, from uint64, pages int) uint64 {
	t.Helper()
	n := from
	for rolled := 0; rolled < pages; n++ {
		p := s.cur.Load()
		k, v := n%300+1, fmt.Sprintf("%0800d", n)
		if err := s.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		ref[k] = v
		if s.cur.Load() != p {
			rolled++
		}
	}
	return n
}

// TestCrashAfterCompactAndReuse: Compact, let its frees run, then Put until
// the rollovers have taken the freed pages again, deleting keys before and
// after the Compact; an image taken then opens to the reference state. A
// store opened over that image writes on, and its own image opens right too:
// the rebuilt allocator and sequence numbers carry on from the bytes.
func TestCrashAfterCompactAndReuse(t *testing.T) {
	region := pmem.NewRegion(32<<20, pmem.None())
	s := Open(region, btree.New())
	ref := make(map[uint64]string)
	next := fillPages(t, s, ref, 1, 4)
	for k := uint64(1); k <= 300; k += 7 { // tombstones the Compact drops
		if _, err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(ref, k)
	}
	if _, err := s.Compact(btree.New()); err != nil {
		t.Fatal(err)
	}
	drainFrees()
	freed := region.FreeChunks(PageSize)
	if freed < 3 {
		t.Fatalf("Compact freed %d pages, want several", freed)
	}
	next = fillPages(t, s, ref, next, freed+1)
	if region.FreeChunks(PageSize) != 0 {
		t.Fatalf("%d freed pages left unused by the rollovers", region.FreeChunks(PageSize))
	}
	for k := uint64(2); k <= 300; k += 11 { // tombstones in reused pages
		if _, err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(ref, k)
	}
	checkState(t, "writer", s, ref)
	reopened := reopen(region.Snapshot())
	checkState(t, "reopened", reopened, ref)

	fillPages(t, reopened, ref, next, 2)
	if _, err := reopened.Delete(3); err != nil {
		t.Fatal(err)
	}
	delete(ref, 3)
	checkState(t, "reopened twice", reopen(reopened.region.Snapshot()), ref)
}

// TestCrashAfterTwoCompacts: two Compacts with no epoch advance between
// them beyond their own, then a crash. The second walks past the pages the
// first stamped free, so no page is retired twice, and the image opens to
// the reference state with every displaced page free once.
func TestCrashAfterTwoCompacts(t *testing.T) {
	region := pmem.NewRegion(32<<20, pmem.None())
	s := Open(region, btree.New())
	ref := make(map[uint64]string)
	fillPages(t, s, ref, 1, 3)
	for k := uint64(5); k <= 300; k += 5 {
		if _, err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(ref, k)
	}
	var displaced int // the pages the two Compacts displace
	for range 2 {
		displaced += len(walkPages(region).log)
		if _, err := s.Compact(btree.New()); err != nil {
			t.Fatal(err)
		}
	}
	img := region.Snapshot()
	if w := walkPages(region); len(w.free) != displaced {
		t.Fatalf("%d pages stamped free after two Compacts, want the %d they displaced", len(w.free), displaced)
	}
	checkState(t, "reopened", reopen(img), ref)
	drainFrees()
	checkState(t, "writer", s, ref)
}

// TestReopenSameRegionAndImage: one image opened by a new Store over the
// Region that wrote it and over a fresh Region restored from it gives the
// same state, the same allocation and the same free list.
func TestReopenSameRegionAndImage(t *testing.T) {
	region := pmem.NewRegion(32<<20, pmem.None())
	s := Open(region, btree.New())
	ref := make(map[uint64]string)
	next := fillPages(t, s, ref, 1, 3)
	if _, err := s.Compact(btree.New()); err != nil {
		t.Fatal(err)
	}
	fillPages(t, s, ref, next, 2)
	for k := uint64(10); k <= 300; k += 9 {
		if _, err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(ref, k)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	drainFrees()
	img := region.Snapshot()
	same := Open(region, btree.New())
	fresh := reopen(img)
	checkState(t, "same region", same, ref)
	checkState(t, "restored region", fresh, ref)
	if a, b := same.region.Allocated(), fresh.region.Allocated(); a != b {
		t.Fatalf("allocated %d bytes over the writing region, %d over the restored one", a, b)
	}
	if a, b := walkPages(same.region), walkPages(fresh.region); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("the two regions' walks differ: %v and %v", a, b)
	}
}

// TestCrashInsideReuseRollover: a rollover onto a reused page runs
// Region.Alloc's clear of the whole page, stamp included, before it writes
// the new stamp. An image taken between the two, with the cleared page
// below log pages (chunk 0 among them), opens to the reference state with
// every log page found and the cleared page stamped free and on the free
// list; the store writes on from there, and its own image opens right too.
func TestCrashInsideReuseRollover(t *testing.T) {
	region := pmem.NewRegion(32<<20, pmem.None())
	s := Open(region, btree.New())
	ref := make(map[uint64]string)
	next := fillPages(t, s, ref, 1, 4)
	if _, err := s.Compact(btree.New()); err != nil {
		t.Fatal(err)
	}
	drainFrees()
	next = fillPages(t, s, ref, next, 1)
	img := region.Snapshot()
	w := walkPages(region)
	if len(w.free) < 2 || !slices.Contains(w.free, 0) || slices.Max(w.log) < slices.Max(w.free) {
		t.Fatalf("want free pages, chunk 0 among them, below the log's last; log %v, free %v", w.log, w.free)
	}
	for _, f := range w.free {
		torn := slices.Clone(img)
		clear(torn[f : f+PageSize])
		r := reopen(torn)
		what := fmt.Sprintf("page %d cleared", f)
		checkState(t, what, r, ref)
		if got := walkPages(r.region); !slices.Equal(got.log, w.log) || !slices.Equal(got.free, w.free) {
			t.Fatalf("%s: reopened walk lists log %v and free %v, want %v and %v", what, got.log, got.free, w.log, w.free)
		}
		ref := maps.Clone(ref)
		fillPages(t, r, ref, next, len(w.free)+1)
		checkState(t, what+", written on", reopen(r.region.Snapshot()), ref)
	}
}

// TestReopenResumesNewestPage: a store opened over a region that holds a
// log writes on in the log's newest page, behind its last record, so a
// restart takes no fresh page: Put and reopen, by the writing region and
// by a restored image in turn, stay in one page. After a Compact the
// resumed page is the one Compact left current.
func TestReopenResumesNewestPage(t *testing.T) {
	s := Open(pmem.NewRegion(4<<20, pmem.None()), btree.New())
	ref := make(map[uint64]string)
	for i := uint64(1); i <= 40; i++ {
		v := fmt.Sprintf("v%d", i)
		if err := s.Put(i%7, []byte(v)); err != nil {
			t.Fatal(err)
		}
		ref[i%7] = v
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			s = Open(s.region, btree.New())
		} else {
			s = reopen(s.region.Snapshot())
		}
		checkState(t, fmt.Sprintf("restart %d", i), s, ref)
		if got := s.region.Allocated(); got != PageSize {
			t.Fatalf("restart %d: %d bytes allocated, want one page", i, got)
		}
	}
	fillPages(t, s, ref, 1, 2)
	if _, err := s.Compact(btree.New()); err != nil {
		t.Fatal(err)
	}
	cur := s.cur.Load()
	r := reopen(s.region.Snapshot())
	if got := r.cur.Load(); got.off != cur.off || got.pos.Load() != cur.pos.Load() {
		t.Fatalf("reopened at page %d position %d, want Compact's current page %d at %d", got.off, got.pos.Load(), cur.off, cur.pos.Load())
	}
	checkState(t, "after Compact", r, ref)
}

// TestReopenSkipsPageWithHole: concurrent Puts claim slots of one page in
// order but may land out of order, so a crash can leave a claimed slot
// unwritten with a record behind it. The scan ends at the hole, and the
// store opened over it must not write into the page, where a new record
// would leave the one behind the hole, or a part of it, to be read as
// records: it takes a fresh page.
func TestReopenSkipsPageWithHole(t *testing.T) {
	s := Open(pmem.NewRegion(4<<20, pmem.None()), btree.New())
	for k := uint64(1); k <= 3; k++ {
		if err := s.Put(k, value(k)); err != nil {
			t.Fatal(err)
		}
	}
	img := s.region.Snapshot()
	hole := offsetOf(t, s, 2)
	clear(img[hole : hole+recordHeader+DefaultValueSize])
	r := reopen(img)
	ref := map[uint64]string{1: string(value(1))}
	checkState(t, "reopened", r, ref)
	if err := r.Put(4, []byte("short")); err != nil {
		t.Fatal(err)
	}
	ref[4] = "short"
	if got := offsetOf(t, r, 4); got < PageSize {
		t.Fatalf("Put after the reopen landed at %d, in the page with the hole", got)
	}
	checkState(t, "written on", r, ref)
	checkState(t, "reopened twice", reopen(r.region.Snapshot()), ref)
}

// TestOpenEmptyRegionReadsTwoStamps: an empty region costs Open two reads
// of one line each, the first two chunks' stamps (the second tells a
// never-stamped region from a reused chunk 0 caught before its stamp).
func TestOpenEmptyRegionReadsTwoStamps(t *testing.T) {
	region := pmem.NewRegion(64<<20, pmem.None())
	s := Open(region, btree.New())
	if a := region.AccessStats(); a.Reads != 2 || a.LineReads != 2 || a.Writes != 0 || region.Allocated() != 0 || s.Len() != 0 {
		t.Fatalf("Open over an empty region: %+v, %d bytes allocated, %d keys; want 2 reads of 1 line", a, region.Allocated(), s.Len())
	}
}

// TestCompactCurrentPageIsNewest: with several copy workers, the page
// Compact leaves current is the newest in the log, so the Puts that land
// in it outrank every copy once the region is reopened.
func TestCompactCurrentPageIsNewest(t *testing.T) {
	forceWorkers(t, 4)
	region := pmem.NewRegion(64<<20, pmem.None())
	s := Open(region, btree.New())
	keys := make([]uint64, 5*bulkMinPerWorker)
	ref := make(map[uint64]string, len(keys))
	for i := range keys {
		keys[i] = 3 * uint64(i+1)
		ref[keys[i]] = string(value(0))
	}
	if err := s.BulkPut(keys, value(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(btree.New()); err != nil {
		t.Fatal(err)
	}
	if pages := logPages(s); pages[len(pages)-1] != s.cur.Load().off {
		t.Fatalf("the current page %d is not the newest of the log %v", s.cur.Load().off, pages)
	}
	for i := 0; i < len(keys); i += 97 {
		if err := s.Put(keys[i], value(keys[i])); err != nil {
			t.Fatal(err)
		}
		ref[keys[i]] = string(value(keys[i]))
	}
	checkState(t, "reopened", reopen(region.Snapshot()), ref)
}

// TestCrashInsideBulkPut: BulkPut stamps a reused page free as it takes
// it and the first of its fresh pages free with the load's reservation,
// then writes every page once, in any order. An image with any seeded
// subset of the load's pages still unwritten — the first fresh page among
// them, holding only its reservation, and written pages above two
// unwritten ones — opens to the state before the load plus the records of
// the written pages, with the allocator and free list the walk lists.
// Puts that roll over into the unwritten chunks surface no stale record,
// and the image they leave opens right too. Loads go into an empty region
// and into one whose log has freed pages.
func TestCrashInsideBulkPut(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	val := string(value(62))
	perPage := (PageSize - stampSize) / (recordHeader + len(val))
	var keys []uint64
	for k := uint64(2); k <= 300; k += 2 { // keys the log may hold already
		keys = append(keys, k)
	}
	for i := uint64(0); len(keys) < 9*perPage+100; i++ {
		keys = append(keys, 1000+3*i)
	}
	for _, freed := range []bool{false, true} {
		region := pmem.NewRegion(32<<20, pmem.None())
		s := Open(region, btree.New())
		ref := make(map[uint64]string)
		next := uint64(1)
		if freed {
			next = fillPages(t, s, ref, next, 4)
			if _, err := s.Compact(btree.New()); err != nil {
				t.Fatal(err)
			}
			drainFrees()
		}
		before := s.seq.Load()
		if err := s.BulkPut(keys, []byte(val)); err != nil {
			t.Fatal(err)
		}
		post := region.Snapshot()

		// The load's pages in load order, and the first fresh one.
		type loadPage struct {
			off   int64
			seq   uint64
			fresh bool
		}
		var load []loadPage
		for off := int64(0); off < region.Allocated(); off += PageSize {
			b := post[off : off+stampSize]
			if seq := binary.LittleEndian.Uint64(b[8:16]); isStamp(b) && b[16] == pageLog && seq > before {
				load = append(load, loadPage{off, seq, binary.LittleEndian.Uint64(b[17:25]) != 0})
			}
		}
		slices.SortFunc(load, func(a, b loadPage) int { return cmp.Compare(a.seq, b.seq) })
		first := slices.IndexFunc(load, func(p loadPage) bool { return p.fresh })
		fresh := 0
		for _, p := range load {
			if p.fresh {
				fresh++
			}
		}
		if fresh < 4 || freed != (first > 0) {
			t.Fatalf("freed %v: %d load pages, %d fresh from %d; want at least 4 fresh, behind reused ones iff freed", freed, len(load), fresh, first)
		}

		for trial := range 12 {
			unwritten := make([]bool, len(load))
			if trial == 0 {
				for i := first; i < first+3; i++ { // written pages above a gap of two
					unwritten[i] = true
				}
			} else {
				for i := range unwritten {
					unwritten[i] = rng.Intn(2) == 0
				}
			}
			img := slices.Clone(post)
			want := maps.Clone(ref)
			for i, p := range load {
				page := img[p.off : p.off+PageSize]
				if !unwritten[i] {
					for _, k := range keys[i*perPage : min((i+1)*perPage, len(keys))] {
						want[k] = val
					}
					continue
				}
				clear(page[stampSize:])
				if p.fresh && i != first {
					clear(page[:stampSize])
				} else {
					page[16] = pageFree // the stamp its page took under the lock
				}
			}
			what := fmt.Sprintf("freed %v, unwritten %v", freed, unwritten)
			r := reopen(img)
			checkState(t, what, r, want)
			w := walkPages(r.region)
			fillPages(t, r, want, next, len(w.free)+2)
			checkState(t, what+", written on", reopen(r.region.Snapshot()), want)
		}
	}
}
