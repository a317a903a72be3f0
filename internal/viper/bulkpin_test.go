package viper

import (
	"bytes"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"learnedpieces/internal/btree"
	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/parallel"
	"learnedpieces/internal/pmem"
)

// bulkPin is what the bulk paths leave behind for one fixed load: the
// FNV-64 of the region's allocated bytes and the region's full device
// bill after BulkPut and after Compact, the FNV-64 of the allocated
// bytes once the Puts and Deletes behind the load are logged (the exact
// records and tombstones they append), and the FNV-64 of the (key,
// offset) pairs Recover bulk-loads.
type bulkPin struct {
	bulk, compact           uint64
	bulkStats, compactStats pmem.AccessStats
	logged                  uint64
	recovered               uint64
}

// loadRecorder hashes the pairs a bulk load hands its index.
type loadRecorder struct {
	index.Index
	h hash.Hash64
}

func (r *loadRecorder) BulkLoad(keys, vals []uint64) error {
	var b [16]byte
	for i, k := range keys {
		binary.LittleEndian.PutUint64(b[:8], k)
		binary.LittleEndian.PutUint64(b[8:], vals[i])
		r.h.Write(b[:])
	}
	return r.Index.BulkLoad(keys, vals)
}

func allocatedHash(r *pmem.Region) uint64 {
	h := fnv.New64()
	h.Write(r.Snapshot()[:r.Allocated()])
	return h.Sum64()
}

// runBulkPin bulk-loads 6000 OSM-like keys into a store of the given
// nominal value size (0 keeps the default), overwrites, inserts and
// deletes behind the load — longValue goes to one update — and then
// recovers and compacts, on one worker so the block buffer sees one
// order of accesses.
func runBulkPin(t *testing.T, valueSize int, longValue []byte) bulkPin {
	t.Helper()
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	region := pmem.NewRegion(16<<20, pmem.Optane())
	s := Open(region, btree.New(), WithValueSize(valueSize))
	defer s.Close()
	keys := dataset.Generate(dataset.OSMLike, 6000, 7)
	if err := s.BulkPut(keys, nil); err != nil {
		t.Fatal(err)
	}
	var pin bulkPin
	pin.bulk, pin.bulkStats = allocatedHash(region), region.AccessStats()

	for i := 0; i < len(keys); i += 7 {
		if err := s.Put(keys[i], bytes.Repeat([]byte{byte(i)}, 1+i%97)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 3; i < len(keys); i += 11 {
		if err := s.Put(keys[i]+1, []byte{byte(i), 1}); err != nil { // a fresh key
			t.Fatal(err)
		}
		if _, err := s.Delete(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(keys[14], []byte("twice")); err != nil { // the newest of three versions
		t.Fatal(err)
	}
	if err := s.Put(keys[21], longValue); err != nil {
		t.Fatal(err)
	}

	pin.logged = allocatedHash(region)

	rec := &loadRecorder{Index: btree.New(), h: fnv.New64()}
	s.DropIndex(btree.New())
	if err := s.Recover(rec); err != nil {
		t.Fatal(err)
	}
	pin.recovered = rec.h.Sum64()
	if _, err := s.Compact(btree.New()); err != nil {
		t.Fatal(err)
	}
	pin.compact, pin.compactStats = allocatedHash(region), region.AccessStats()

	for key, want := range map[uint64][]byte{keys[14]: []byte("twice"), keys[21]: longValue} {
		if got, ok := s.Get(key); !ok || !bytes.Equal(got, want) {
			t.Fatalf("Get(%d) = %q, %v after Compact; want %q", key, got, ok, want)
		}
	}
	if _, ok := s.Get(keys[3]); ok {
		t.Fatalf("deleted key %d survived Compact", keys[3])
	}
	return pin
}

// TestBulkPathsPinned pins the bytes and the device bill of BulkPut and
// Compact, the bytes the Puts and Deletes log and the pairs Recover
// rebuilds, at the default value size and at a 64-byte nominal size whose
// one 300-byte value costs its reads a second access.
func TestBulkPathsPinned(t *testing.T) {
	for _, c := range []struct {
		name      string
		valueSize int
		long      []byte
		want      bulkPin
	}{
		{"default", 0, bytes.Repeat([]byte("L"), 240), bulkPin{
			bulk: 0x06f6aa3a294300e7, compact: 0x598f029065eab37e, recovered: 0xadd07c0acbc3e4af,
			logged: 0x35d817446c6ea78c,
			bulkStats: pmem.AccessStats{Reads: 4, Writes: 3, Flushes: 3, LineReads: 4, LineWrites: 4995,
				ReadStallNs: 680, WriteStallNs: 449550},
			compactStats: pmem.AccessStats{Reads: 6016, Writes: 1961, Flushes: 1961, LineReads: 27353,
				LineWrites: 11315, ReadStallNs: 4549200, WriteStallNs: 866790},
		}},
		{"value64", 64, bytes.Repeat([]byte("L"), 300), bulkPin{
			bulk: 0x112d3d6b5ded9326, compact: 0x0d46c2d5d2142bd1, recovered: 0x8fb1851205ef0524,
			logged: 0x57d628af4c377ff2,
			bulkStats: pmem.AccessStats{Reads: 4, Writes: 2, Flushes: 2, LineReads: 4, LineWrites: 1806,
				ReadStallNs: 680, WriteStallNs: 162540},
			compactStats: pmem.AccessStats{Reads: 6275, Writes: 1957, Flushes: 1957, LineReads: 16354,
				LineWrites: 5656, ReadStallNs: 2335120, WriteStallNs: 357570},
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := runBulkPin(t, c.valueSize, c.long); got != c.want {
				t.Errorf("got  %#v\nwant %#v", got, c.want)
			}
		})
	}
}
