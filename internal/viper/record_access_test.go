package viper

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"time"

	"learnedpieces/internal/btree"
	"learnedpieces/internal/epoch"
	"learnedpieces/internal/pmem"
)

// spanLines is the number of 256-byte device lines [off, off+n) touches.
func spanLines(off int64, n int) int64 {
	return (off+int64(n)-1)/256 - off/256 + 1
}

// deviceDelta runs fn and returns what it cost the region.
func deviceDelta(r *pmem.Region, fn func()) pmem.AccessStats {
	b := r.AccessStats()
	fn()
	a := r.AccessStats()
	return pmem.AccessStats{
		Reads: a.Reads - b.Reads, Writes: a.Writes - b.Writes, Flushes: a.Flushes - b.Flushes,
		LineReads: a.LineReads - b.LineReads, LineWrites: a.LineWrites - b.LineWrites,
	}
}

// offsetOf resolves key's record offset through the index (no device access).
func offsetOf(t *testing.T, s *Store, key uint64) int64 {
	t.Helper()
	off, ok := s.Index().Get(key)
	if !ok {
		t.Fatalf("key %d not indexed", key)
	}
	return int64(off)
}

// padPage appends filler records until exactly remaining bytes are left
// in the store's current page. Filler keys count up from *next.
func padPage(t *testing.T, s *Store, remaining int, next *uint64) {
	t.Helper()
	if s.cur.Load() == nil { // open the first page
		if err := s.Put(*next, value(*next)); err != nil {
			t.Fatal(err)
		}
		*next++
	}
	full := recordHeader + s.valueSize
	for {
		gap := PageSize - int(s.cur.Load().pos.Load()) - remaining
		if gap == 0 {
			return
		}
		vlen := s.valueSize
		if gap < 2*full {
			vlen = gap - recordHeader // the last filler lands exactly
		}
		if err := s.Put(*next, make([]byte, vlen)); err != nil {
			t.Fatal(err)
		}
		*next++
	}
}

// TestOneAccessPerRecord pins the store's device contract with exact
// counters: every point read of a record is one device read of the lines
// the record access spans, every append is one write and one flush.
func TestOneAccessPerRecord(t *testing.T) {
	const recLen = recordHeader + DefaultValueSize
	region := pmem.NewRegion(8<<20, pmem.None())
	s := Open(region, btree.New())

	// Put: one write, one flush, the lines the record spans. Keys 1..40
	// are 6 keys apart in the log (filler in between), so a Range over
	// them finds no neighbour within a span's reach.
	filler := uint64(1 << 32)
	for k := uint64(1); k <= 40; k++ {
		d := deviceDelta(region, func() {
			if err := s.Put(k, value(k)); err != nil {
				t.Fatal(err)
			}
		})
		off := offsetOf(t, s, k)
		if d.Writes != 1 || d.Flushes != 1 || d.Reads != 0 || d.LineWrites != spanLines(off, recLen) {
			t.Fatalf("Put(%d) at %d cost %+v, want 1 write, 1 flush, %d lines", k, off, d, spanLines(off, recLen))
		}
		for i := 0; i < 5; i++ {
			if err := s.Put(filler, value(filler)); err != nil {
				t.Fatal(err)
			}
			filler++
		}
	}

	// Get hit: one read.
	for k := uint64(1); k <= 40; k++ {
		var got []byte
		d := deviceDelta(region, func() { got, _ = s.Get(k) })
		off := offsetOf(t, s, k)
		if !bytes.Equal(got, value(k)) {
			t.Fatalf("Get(%d) returned wrong bytes", k)
		}
		if d.Reads != 1 || d.LineReads != spanLines(off, recLen) {
			t.Fatalf("Get(%d) at %d cost %+v, want 1 read of %d lines", k, off, d, spanLines(off, recLen))
		}
	}

	// MultiGet: one read per distinct key.
	batch := []uint64{7, 3, 29, 11, 40, 1, 18, 22}
	var wantLines int64
	for _, k := range batch {
		wantLines += spanLines(offsetOf(t, s, k), recLen)
	}
	var vals [][]byte
	d := deviceDelta(region, func() { vals = s.MultiGet(batch) })
	for i, k := range batch {
		if !bytes.Equal(vals[i], value(k)) {
			t.Fatalf("MultiGet key %d returned wrong bytes", k)
		}
	}
	if d.Reads != int64(len(batch)) || d.LineReads != wantLines {
		t.Fatalf("MultiGet of %d cost %+v, want %d reads of %d lines", len(batch), d, len(batch), wantLines)
	}

	// MultiGet resolves its batch in key order, in groups of ⌈√n⌉ keys
	// that never split a run of equal keys, and each group's
	// hits are read through the engine Range rounds use. Duplicate keys
	// are equal offsets, which share one read; the first filler behind
	// key k's record (fillerOf) is its log neighbour. Two neighbours in
	// one group are one span read; in different groups they are two
	// reads, because the earlier group's reads are issued before the
	// later group's lookup.
	fillerOf := func(k uint64) uint64 { return 1<<32 + (k-1)*5 }
	for _, tc := range []struct {
		name  string
		batch []uint64
		reads int64
		spans [][2]uint64 // first key and record count of each expected read
	}{
		{"duplicates", []uint64{7, 3, 7, 29, 3, 7}, 3, [][2]uint64{{7, 1}, {3, 1}, {29, 1}}},
		// Groups {9, 18}, {fillerOf(9)}: the neighbours are split.
		{"log neighbours", []uint64{18, fillerOf(9), 9}, 3, [][2]uint64{{9, 1}, {18, 1}, {fillerOf(9), 1}}},
		// Groups {9, 9, 33}, {fillerOf(9), fillerOf(9)+1}: 9 is split
		// from its neighbour, the two fillers are one span.
		{"neighbours and duplicates", []uint64{fillerOf(9) + 1, 9, 9, fillerOf(9), 33}, 3,
			[][2]uint64{{9, 1}, {33, 1}, {fillerOf(9), 2}}},
		// Groups {3, 5}, {fillerOf(9), fillerOf(9)+1}: one span read.
		{"log neighbours in one group", []uint64{fillerOf(9) + 1, fillerOf(9), 5, 3}, 3,
			[][2]uint64{{3, 1}, {5, 1}, {fillerOf(9), 2}}},
	} {
		wantLines = 0
		for _, sp := range tc.spans {
			wantLines += spanLines(offsetOf(t, s, sp[0]), int(sp[1])*recLen)
		}
		d = deviceDelta(region, func() { vals = s.MultiGet(tc.batch) })
		for i, k := range tc.batch {
			if !bytes.Equal(vals[i], value(k)) {
				t.Fatalf("MultiGet with %s: key %d returned wrong bytes", tc.name, k)
			}
		}
		if d.Reads != tc.reads || d.LineReads != wantLines {
			t.Fatalf("MultiGet with %s cost %+v, want %d reads of %d lines", tc.name, d, tc.reads, wantLines)
		}
	}

	// Scattered Range entries: one read each (no span can join them).
	wantLines = 0
	for k := uint64(5); k < 15; k++ {
		wantLines += spanLines(offsetOf(t, s, k), recLen)
	}
	seen := 0
	d = deviceDelta(region, func() {
		err := s.Range(5, 10, func(k uint64, v []byte) bool {
			if !bytes.Equal(v, value(k)) {
				t.Errorf("Range key %d returned wrong bytes", k)
			}
			seen++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if seen != 10 || d.Reads != 10 || d.LineReads != wantLines {
		t.Fatalf("Range delivered %d entries for %+v, want 10 entries, 10 reads, %d lines", seen, d, wantLines)
	}

	// Range over log neighbours: the five fillers behind key 9 are one
	// span read. A round of ten is read as a head of ⌈√10⌉ = 4 entries and
	// a rest of 6 (rangeHead), whose reads are issued apart: the first
	// four fillers are one span, and the fifth and the five behind key 10,
	// with key 10's own record bridged between them, are another.
	for _, tc := range []struct {
		n     int
		spans [][2]uint64 // first key and record count of each expected read
	}{
		{5, [][2]uint64{{fillerOf(9), 5}}},
		{10, [][2]uint64{{fillerOf(9), 4}, {fillerOf(9) + 4, 7}}},
	} {
		wantLines = 0
		for _, sp := range tc.spans {
			wantLines += spanLines(offsetOf(t, s, sp[0]), int(sp[1])*recLen)
		}
		seen = 0
		d = deviceDelta(region, func() {
			err := s.Range(fillerOf(9), tc.n, func(k uint64, v []byte) bool {
				if k != fillerOf(9)+uint64(seen) || !bytes.Equal(v, value(k)) {
					t.Errorf("Range entry %d: key %d or its bytes are wrong", seen, k)
				}
				seen++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		if seen != tc.n || d.Reads != int64(len(tc.spans)) || d.LineReads != wantLines {
			t.Fatalf("Range over %d log neighbours delivered %d for %+v, want %d reads of %d lines", tc.n, seen, d, len(tc.spans), wantLines)
		}
	}

	// Delete: the tombstone is one write of the header's lines, one flush.
	tombAt := int64(s.cur.Load().off + s.cur.Load().pos.Load())
	d = deviceDelta(region, func() {
		if ok, err := s.Delete(40); !ok || err != nil {
			t.Fatalf("Delete(40) = %v, %v", ok, err)
		}
	})
	if d.Writes != 1 || d.Flushes != 1 || d.Reads != 0 || d.LineWrites != spanLines(tombAt, recordHeader) {
		t.Fatalf("Delete cost %+v, want 1 write, 1 flush, %d lines", d, spanLines(tombAt, recordHeader))
	}

	// A value longer than ValueSize: the declared length falls short, so
	// the value costs a second read; the bytes are still right.
	long := bytes.Repeat([]byte("0123456789"), 70)
	if err := s.Put(100, long); err != nil {
		t.Fatal(err)
	}
	var got []byte
	d = deviceDelta(region, func() { got, _ = s.Get(100) })
	if d.Reads != 2 || !bytes.Equal(got, long) {
		t.Fatalf("Get of a %d-byte value: %d reads, bytes equal %v; want 2 reads", len(long), d.Reads, bytes.Equal(got, long))
	}

	// A shorter value: still one read, of the declared length.
	if err := s.Put(101, []byte("short")); err != nil {
		t.Fatal(err)
	}
	d = deviceDelta(region, func() { got, _ = s.Get(101) })
	if off := offsetOf(t, s, 101); d.Reads != 1 || d.LineReads != spanLines(off, recLen) || string(got) != "short" {
		t.Fatalf("Get of a short value at %d: %+v, %q; want 1 read of %d lines", off, d, got, spanLines(off, recLen))
	}

	t.Run("region end", clampsAtRegionEnd)
}

// clampsAtRegionEnd: records that end exactly at the last byte of the
// region are read with the access clamped, never past it.
func clampsAtRegionEnd(t *testing.T) {
	for _, tc := range []struct {
		name string
		vlen int // 0 = tombstone
	}{
		{"full record", DefaultValueSize},
		{"short record", 100},
		{"tombstone", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			region := pmem.NewRegion(PageSize, pmem.None())
			s := Open(region, btree.New())
			next := uint64(1000)
			padPage(t, s, recordHeader+tc.vlen, &next)
			off := int64(PageSize - recordHeader - tc.vlen)

			if tc.vlen == 0 {
				if ok, err := s.Delete(1000); !ok || err != nil {
					t.Fatalf("Delete = %v, %v", ok, err)
				}
				var live bool
				d := deviceDelta(region, func() { _, live = s.readRecord(nil, off) })
				if live || d.Reads != 1 || d.LineReads != 1 {
					t.Fatalf("tombstone at the region end: live=%v, %+v; want dead, 1 read of 1 line", live, d)
				}
				return
			}
			want := bytes.Repeat([]byte{0xAB}, tc.vlen)
			if err := s.Put(1, want); err != nil {
				t.Fatal(err)
			}
			if got := offsetOf(t, s, 1); got != off {
				t.Fatalf("last record at %d, want %d", got, off)
			}
			var got []byte
			d := deviceDelta(region, func() { got, _ = s.Get(1) })
			if !bytes.Equal(got, want) || d.Reads != 1 || d.LineReads != spanLines(off, recordHeader+tc.vlen) {
				t.Fatalf("Get at the region end: %+v, bytes equal %v; want 1 read of %d lines",
					d, bytes.Equal(got, want), spanLines(off, recordHeader+tc.vlen))
			}
		})
	}
}

// scanPagesPerRecord is the reference scanLive is checked against: the
// serial replay of the log, one 13-byte device access per record header,
// every length trusted, the newest version of each key kept in a map.
func scanPagesPerRecord(s *Store, pages []int64) (keys, offs []uint64) {
	type version struct {
		off  uint64
		dead bool
	}
	newest := make(map[uint64]version)
	for _, page := range pages {
		for pos := stampSize; pos+recordHeader <= PageSize; {
			off := page + int64(pos)
			hdr := s.region.ReadNoCopy(off, recordHeader)
			key := binary.LittleEndian.Uint64(hdr[0:8])
			vlen := binary.LittleEndian.Uint32(hdr[8:12])
			if key == 0 && vlen == 0 && hdr[12] == 0 {
				break
			}
			newest[key] = version{uint64(off), hdr[12]&flagDeleted != 0}
			pos += recordHeader + int(vlen)
		}
	}
	for k, v := range newest {
		if !v.dead {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		offs = append(offs, newest[k].off)
	}
	return keys, offs
}

// TestScanLiveMatchesReference: on logs with updates, tombstones, revived
// keys, keys 0 and 2⁶⁴−1, mixed record lengths, abandoned page tails,
// bulk-loaded (already sorted) stretches and pages reused out of offset
// order, the slice scan finds exactly the serial replay's newest versions
// for every worker count, with one device read per page.
func TestScanLiveMatchesReference(t *testing.T) {
	check := func(t *testing.T, s *Store) {
		t.Helper()
		pages := logPages(s)
		wantKeys, wantOffs := scanPagesPerRecord(s, pages)
		for workers := 1; workers <= 6; workers++ {
			forceWorkers(t, workers)
			var keys, offs []uint64
			d := deviceDelta(s.region, func() { keys, offs, _ = s.scanLive(pages) })
			if !slices.Equal(keys, wantKeys) || !slices.Equal(offs, wantOffs) {
				t.Fatalf("%d workers: scanLive found %d keys, the serial replay %d, or versions differ", workers, len(keys), len(wantKeys))
			}
			if d.Reads != int64(len(pages)) {
				t.Fatalf("%d workers: %d device reads for %d pages", workers, d.Reads, len(pages))
			}
		}
	}
	t.Run("fixed", func(t *testing.T) {
		s, _ := buildMultiPageStore(t, pmem.NewRegion(64<<20, pmem.None()))
		check(t, s)
	})
	// The first key's only live record sits in the first page, its
	// tombstone in the last: with two or more workers the two are seen by
	// different chunks. The bulk-loaded pages in between are the sorted
	// fast path; the pages around them are not.
	t.Run("tombstone in a later chunk", func(t *testing.T) {
		s := Open(pmem.NewRegion(16<<20, pmem.None()), btree.New())
		if err := s.Put(5, value(5)); err != nil {
			t.Fatal(err)
		}
		bulk := make([]uint64, 12_000)
		for i := range bulk {
			bulk[i] = 100 + 2*uint64(i)
		}
		if err := s.BulkPut(bulk, value(0)); err != nil {
			t.Fatal(err)
		}
		if err := s.Recover(btree.New()); err != nil { // key 5 back in the index
			t.Fatal(err)
		}
		for k := uint64(101); k < 12_000; k += 2 {
			if err := s.Put(k, value(k)); err != nil {
				t.Fatal(err)
			}
		}
		if ok, err := s.Delete(5); !ok || err != nil {
			t.Fatalf("Delete(5) = %v, %v", ok, err)
		}
		if len(logPages(s)) < 5 {
			t.Fatalf("want the log to span 5 pages, got %d", len(logPages(s)))
		}
		check(t, s)
		if keys, _, _ := s.scanLive(logPages(s)); keys[0] == 5 {
			t.Fatal("key 5 survived its tombstone")
		}
	})
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := Open(pmem.NewRegion(64<<20, pmem.None()), btree.New())
		key := func() uint64 {
			switch k := uint64(rng.Intn(1500)); k {
			case 0:
				return 0
			case 1:
				return ^uint64(0)
			default:
				return k
			}
		}
		for i := 0; i < 12_000; i++ {
			if i == 6000 && seed%2 == 0 {
				// Compact and let the retired pages be freed: the log's
				// later pages now sit at lower offsets than its earlier.
				if _, err := s.Compact(btree.New()); err != nil {
					t.Fatal(err)
				}
				for j := 0; j < 3; j++ {
					epoch.Advance()
				}
			}
			k := key()
			if rng.Intn(5) == 0 {
				if _, err := s.Delete(k); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err := s.Put(k, make([]byte, 1+rng.Intn(1200))); err != nil {
				t.Fatal(err)
			}
		}
		if len(logPages(s)) < 3 {
			t.Fatalf("seed %d: want a multi-page log, got %d pages", seed, len(logPages(s)))
		}
		if seed%2 == 0 && slices.IsSorted(logPages(s)) {
			t.Fatalf("seed %d: no page was reused out of offset order", seed)
		}
		check(t, s)
	}
}

// TestScanPagesRejectsOverlongRecord: a header whose length would run
// past the page ends that page's scan instead of being indexed.
func TestScanPagesRejectsOverlongRecord(t *testing.T) {
	region := pmem.NewRegion(4*PageSize, pmem.None())
	s := Open(region, btree.New())
	for k := uint64(1); k <= 10; k++ {
		if err := s.Put(k, value(k)); err != nil {
			t.Fatal(err)
		}
	}
	var torn [recordHeader]byte
	binary.LittleEndian.PutUint64(torn[0:8], 99)
	binary.LittleEndian.PutUint32(torn[8:12], PageSize)
	region.Write(s.cur.Load().off+s.cur.Load().pos.Load(), torn[:])

	if err := s.Recover(btree.New()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(99); ok {
		t.Fatal("a record running past its page was recovered")
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d after recovery, want 10", s.Len())
	}
	for k := uint64(1); k <= 10; k++ {
		if v, ok := s.Get(k); !ok || !bytes.Equal(v, value(k)) {
			t.Fatalf("key %d lost", k)
		}
	}
}

// TestBatchReadsPayTheirStall: a batch's record reads are one pmem.Round
// that waits once for the sum of their stalls, and no value may reach the
// caller before that wait. At every Range callback the time since the
// call is at least the read stall charged since it, and MultiGet returns
// no earlier than the stall it charged. The batches mix log neighbours
// (span reads), scattered records, oversized values (straggler reads
// inside a span) and tombstones. Only lower bounds are asserted.
func TestBatchReadsPayTheirStall(t *testing.T) {
	region := pmem.NewRegion(8<<20, pmem.Optane())
	s := Open(region, btree.New())
	s.scanBatch = 16
	put := func(k uint64, v []byte) {
		t.Helper()
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	want := make(map[uint64][]byte)
	filler := uint64(1 << 32)
	for _, p := range rand.New(rand.NewSource(7)).Perm(64) {
		k := uint64(p + 1)
		want[k] = value(k)
		if k%7 == 0 {
			want[k] = bytes.Repeat(want[k], 4) // longer than the declared value size
		}
		put(k, want[k])
		if k%5 == 0 { // the next record has no log neighbour within a span's reach
			for i := 0; i < 8; i++ {
				put(filler, value(filler))
				filler++
			}
		}
	}
	for k := uint64(3); k <= 64; k += 11 {
		if ok, err := s.Delete(k); !ok || err != nil {
			t.Fatalf("Delete(%d) = %v, %v", k, ok, err)
		}
		delete(want, k)
	}
	readStall := func() int64 { return region.AccessStats().ReadStallNs }

	before, start := readStall(), time.Now()
	delivered := 0
	err := s.Range(1, len(want), func(k uint64, v []byte) bool {
		if elapsed, asked := time.Since(start), readStall()-before; elapsed < time.Duration(asked) {
			t.Fatalf("Range delivered key %d after %v, before the %d ns of stall charged so far", k, elapsed, asked)
		}
		if !bytes.Equal(v, want[k]) {
			t.Fatalf("Range delivered key %d with the wrong value", k)
		}
		delivered++
		return true
	})
	if err != nil || delivered != len(want) {
		t.Fatalf("Range delivered %d entries, %v; want %d", delivered, err, len(want))
	}

	batch := []uint64{9, 1 << 40, 14, 3, 64, 9, 35, 21, 2, 63, 28, 1, 49, 50, 33, 7}
	before, start = readStall(), time.Now()
	vals := s.MultiGet(batch)
	if elapsed, asked := time.Since(start), readStall()-before; asked == 0 || elapsed < time.Duration(asked) {
		t.Fatalf("MultiGet returned after %v, before the %d ns of stall it charged", elapsed, asked)
	}
	for i, k := range batch {
		if w, ok := want[k]; (vals[i] != nil) != ok || !bytes.Equal(vals[i], w) {
			t.Fatalf("MultiGet position %d (key %d): %d bytes, want %d", i, k, len(vals[i]), len(w))
		}
	}
}
