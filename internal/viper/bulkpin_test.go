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
// bill after BulkPut and after Compact, and the FNV-64 of the (key,
// offset) pairs Recover bulk-loads.
type bulkPin struct {
	bulk, compact           uint64
	bulkStats, compactStats pmem.AccessStats
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
// Compact and the pairs Recover rebuilds, at the default value size and
// at a 64-byte nominal size whose one 300-byte value costs its reads a
// second access.
func TestBulkPathsPinned(t *testing.T) {
	for _, c := range []struct {
		name      string
		valueSize int
		long      []byte
		want      bulkPin
	}{
		{"default", 0, bytes.Repeat([]byte("L"), 240), bulkPin{
			bulk: 0xfdffcee525e745e2, compact: 0x8b548ad7008e5b47, recovered: 0x9df8ee19214bd3d0,
			bulkStats: pmem.AccessStats{Writes: 2, Flushes: 2, LineWrites: 4993, WriteStallNs: 449370},
			compactStats: pmem.AccessStats{Reads: 6006, Writes: 1956, Flushes: 1956, LineReads: 27356,
				LineWrites: 11312, ReadStallNs: 4549880, WriteStallNs: 866610},
		}},
		{"value64", 64, bytes.Repeat([]byte("L"), 300), bulkPin{
			bulk: 0x2ffabda1ff94b752, compact: 0x82f928e03d71b99d, recovered: 0x0efab5adc1187c07,
			bulkStats: pmem.AccessStats{Writes: 1, Flushes: 1, LineWrites: 1805, WriteStallNs: 162450},
			compactStats: pmem.AccessStats{Reads: 6267, Writes: 1954, Flushes: 1954, LineReads: 16308,
				LineWrites: 5648, ReadStallNs: 2325770, WriteStallNs: 356760},
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := runBulkPin(t, c.valueSize, c.long); got != c.want {
				t.Errorf("got  %#v\nwant %#v", got, c.want)
			}
		})
	}
}
