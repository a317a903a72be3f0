package viper

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"learnedpieces/internal/btree"
	"learnedpieces/internal/cceh"
	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/learned/alex"
	"learnedpieces/internal/learned/flat"
	"learnedpieces/internal/learned/pgm"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/telemetry"
)

// expect returns the first n (all when n <= 0) of the sorted keys a
// scan from start must deliver.
func expect(sorted []uint64, start uint64, n int) []uint64 {
	out := sorted[sort.Search(len(sorted), func(i int) bool { return sorted[i] >= start }):]
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// mustDeliver fails unless a scan delivered exactly the keys in want.
func mustDeliver(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: delivered %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// TestScanLimitIgnoresTombstones is the limit-semantics regression
// test: the caller's n counts *delivered live* entries, so index
// entries that resolve to tombstone records — the lingering shape a
// raced delete can leave behind — must be skipped without consuming
// the limit. The tombstone-pointing entries are constructed white-box
// (append a delete marker, then point an index entry at it), which is
// exactly the state the scan's defensive skip guards against.
func TestScanLimitIgnoresTombstones(t *testing.T) {
	for _, batch := range []int{1, 7, 0} { // per-entry rounds, multi-round, default
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			s := newStore(btree.New())
			s.scanBatch = batch
			var live []uint64
			for k := uint64(0); k < 100; k += 2 {
				if err := s.Put(k, value(k)); err != nil {
					t.Fatal(err)
				}
				live = append(live, k)
			}
			for k := uint64(1); k < 100; k += 2 {
				off, err := s.appendRecord(k, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Index().Insert(k, uint64(off)); err != nil {
					t.Fatal(err)
				}
			}
			var got []uint64
			err := s.Range(0, 25, func(k uint64, v []byte) bool {
				if !bytes.Equal(v, value(k)) {
					t.Fatalf("value mismatch at %d", k)
				}
				got = append(got, k)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			// A short delivery means tombstones consumed the limit.
			mustDeliver(t, "limit 25", got, expect(live, 0, 25))
		})
	}
}

// TestRangeMatchesOracle runs scans at several round sizes, on indexes
// with different cursor shapes, against a sorted-map oracle: overwrites
// (offsets out of key order), deletes, limits, early stop, and starts at
// both ends of the key space — whose keys are loaded too, so a round
// that delivers the last key must stop rather than wrap.
func TestRangeMatchesOracle(t *testing.T) {
	indexes := []struct {
		name     string
		mk       func() index.Index
		readOnly bool
	}{
		{"btree", func() index.Index { return btree.New() }, false},
		{"pgm", func() index.Index { return pgm.New(pgm.DefaultConfig()) }, false},
		{"alex", func() index.Index { return alex.New(alex.DefaultConfig()) }, false},
		{"rmi", func() index.Index { return flat.NewRMI(flat.RMIConfig{}) }, true},
	}
	keys := append(dataset.Generate(dataset.YCSBUniform, 4000, 7), 0, ^uint64(0))
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	mid := keys[len(keys)/2]
	for _, ix := range indexes {
		s := newStore(ix.mk())
		oracle := map[uint64][]byte{}
		if !ix.readOnly {
			for _, k := range keys {
				oracle[k] = value(k)
			}
			// Updates and deletes so the delta layers are populated and
			// offsets are out of key order.
			for i := 0; i < len(keys); i += 3 {
				oracle[keys[i]] = value(keys[i] + 1)
			}
			for _, k := range keys {
				if err := s.Put(k, value(k)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < len(keys); i += 3 {
				if err := s.Put(keys[i], oracle[keys[i]]); err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i < len(keys); i += 5 {
				if _, err := s.Delete(keys[i]); err != nil {
					t.Fatal(err)
				}
				delete(oracle, keys[i])
			}
		} else {
			// One bulk load, one shared payload.
			if err := s.BulkPut(keys, value(1)); err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				oracle[k] = value(1)
			}
		}
		sorted := make([]uint64, 0, len(oracle))
		for k := range oracle {
			sorted = append(sorted, k)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

		for _, batch := range []int{1, 7, 64, 0} {
			t.Run(fmt.Sprintf("%s/batch=%d", ix.name, batch), func(t *testing.T) {
				s.scanBatch = batch
				for _, win := range []struct {
					start uint64
					n     int
					stop  int // callback returns false after this many (0 = never)
				}{{0, 0, 0}, {0, 100, 0}, {mid, 250, 0}, {mid + 1, 0, 9},
					{^uint64(0), 10, 0}, {1 << 63, 1, 0}} {
					want := expect(sorted, win.start, win.n)
					if win.stop > 0 {
						want = want[:win.stop]
					}
					var got []uint64
					err := s.Range(win.start, win.n, func(k uint64, v []byte) bool {
						if !bytes.Equal(v, oracle[k]) {
							t.Fatalf("start=%d n=%d: value mismatch at %d", win.start, win.n, k)
						}
						got = append(got, k)
						return len(got) != win.stop
					})
					if err != nil {
						t.Fatal(err)
					}
					mustDeliver(t, fmt.Sprintf("start=%d n=%d stop=%d", win.start, win.n, win.stop), got, want)
				}
			})
		}
	}
}

// TestScanUnsupported: an index without a cursor refuses scans instead
// of visiting nothing.
func TestScanUnsupported(t *testing.T) {
	h := Open(pmem.NewRegion(8<<20, pmem.None()), cceh.New())
	if err := h.Put(1, value(1)); err != nil {
		t.Fatal(err)
	}
	err := h.Range(0, 0, func(uint64, []byte) bool { t.Fatal("scan visited an entry"); return false })
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("scan on cceh = %v, want ErrUnsupported", err)
	}
}

// TestRangeReseeksAcrossCompact drives a Compact from inside a scan
// callback: at the next pin-yield the scan must notice the displaced
// view, reopen the cursor at the resume key against the new index, and
// still deliver every key exactly once in order. The "edge" case
// compacts while delivering the last key of the key space at the end of
// a full round: there is no resume key past it, so the scan must end
// there instead of wrapping around and reseeking to the start.
func TestRangeReseeksAcrossCompact(t *testing.T) {
	edgeKeys := []uint64{0, 1, 2, 3, ^uint64(0) - 3, ^uint64(0) - 2, ^uint64(0) - 1, ^uint64(0)}
	for _, tc := range []struct {
		name      string
		keys      []uint64
		batch     int
		compactAt int // delivered entries when the callback compacts
		reseeks   bool
	}{
		{"mid", dataset.Generate(dataset.Sequential, 2000, 0), 16, 100, true},
		{"edge", edgeKeys, 4, len(edgeKeys), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := telemetry.New()
			s := Open(pmem.NewRegion(64<<20, pmem.None()), btree.New(), WithTelemetry(sink))
			s.scanBatch = tc.batch
			for _, k := range tc.keys {
				if err := s.Put(k, value(k)); err != nil {
					t.Fatal(err)
				}
			}
			compacted := false
			var got []uint64
			err := s.Range(0, 0, func(k uint64, v []byte) bool {
				if !bytes.Equal(v, value(k)) {
					t.Fatalf("value mismatch at %d", k)
				}
				got = append(got, k)
				if !compacted && len(got) == tc.compactAt {
					compacted = true
					if _, err := s.Compact(btree.New()); err != nil {
						t.Fatal(err)
					}
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			mustDeliver(t, "across compact", got, tc.keys)
			if n := s.met.ScanReseeks.Load(); tc.reseeks != (n >= 1) {
				t.Fatalf("ScanReseeks = %d, want reseek = %v", n, tc.reseeks)
			}
			if n := s.met.ScanPinYields.Load(); n < 1 {
				t.Fatalf("ScanPinYields = %d, want >= 1", n)
			}
		})
	}
}

// TestRangesMatchScansAlone runs a list of scans as one Ranges run and
// each scan alone through Range, over a btree whose delta holds index
// entries that lead to tombstones (so rounds top up) and over a pgm with
// overwrites and deletes in its delta layers: every scan delivers the
// same entries either way, an emit that stops one scan stops it alone,
// and the run issues exactly the device reads and lines the scans do
// alone. A more that refuses scan j ends the run after scan j−1, and is
// asked only once every scan before j−1 has been emitted in full.
func TestRangesMatchScansAlone(t *testing.T) {
	top := ^uint64(0)
	scans := []Scan{{1, 50}, {40, 300}, {top - 2, 10}, {500, 9}, {2000, 5}, {100, 3}, {7, 0}, {top, 1}, {1 << 40, 4}}
	const stopScan, stopAfter = 3, 4 // scan 3's emit returns false after 4 entries
	for _, ix := range []struct {
		name string
		idx  index.Index
	}{{"btree", btree.New()}, {"pgm", pgm.New(pgm.DefaultConfig())}} {
		s := newStore(ix.idx)
		keys := append(seqKeys(1, 1500), top-3, top-1, top)
		for _, k := range keys {
			if err := s.Put(k, value(k)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < len(keys); i += 3 {
			if err := s.Put(keys[i], value(keys[i]+1)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i < len(keys); i += 5 {
			if _, err := s.Delete(keys[i]); err != nil {
				t.Fatal(err)
			}
		}
		if ix.name == "btree" {
			for k := uint64(2); k < 1500; k += 7 {
				off, err := s.appendRecord(k, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Index().Insert(k, uint64(off)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, batch := range []int{7, 0} {
			t.Run(fmt.Sprintf("%s/batch=%d", ix.name, batch), func(t *testing.T) {
				s.scanBatch = batch
				alone := make([][]uint64, len(scans))
				before := s.region.AccessStats()
				for i, sc := range scans {
					err := s.Range(sc.Start, sc.N, func(k uint64, v []byte) bool {
						alone[i] = append(alone[i], k, tag(v))
						return i != stopScan || len(alone[i]) < 2*stopAfter
					})
					if err != nil {
						t.Fatal(err)
					}
				}
				mid := s.region.AccessStats()
				for _, refuse := range []int{len(scans), 5} {
					run := make([][]uint64, len(scans))
					err := s.Ranges(scans, func(j int) bool {
						for i := 0; i < j-1; i++ {
							if len(run[i]) != len(alone[i]) {
								t.Fatalf("more(%d) asked before scan %d was emitted in full", j, i)
							}
						}
						return j < refuse
					}, func(i int, k uint64, v []byte) bool {
						run[i] = append(run[i], k, tag(v))
						return i != stopScan || len(run[i]) < 2*stopAfter
					})
					if err != nil {
						t.Fatal(err)
					}
					for i := range scans {
						want := alone[i]
						if i >= refuse {
							want = nil
						}
						if !slices.Equal(run[i], want) {
							t.Fatalf("refusing scan %d: scan %d %+v delivered %d entries, %d alone, or other ones", refuse, i, scans[i], len(run[i])/2, len(want)/2)
						}
					}
					if refuse == len(scans) {
						after := s.region.AccessStats()
						if got, want := after.Reads-mid.Reads, mid.Reads-before.Reads; got != want {
							t.Fatalf("the run issued %d reads, the scans alone %d", got, want)
						}
						if got, want := after.LineReads-mid.LineReads, mid.LineReads-before.LineReads; got != want {
							t.Fatalf("the run read %d lines, the scans alone %d", got, want)
						}
					}
				}
			})
		}
	}
}

// tag tells value(k) from value(k+1): its bytes after "value-".
func tag(v []byte) uint64 { return binary.LittleEndian.Uint64(v[6:]) }

// TestRangesErrors: a run refuses a closed store and an index without a
// cursor before it emits anything.
func TestRangesErrors(t *testing.T) {
	h := Open(pmem.NewRegion(8<<20, pmem.None()), cceh.New())
	if err := h.Put(1, value(1)); err != nil {
		t.Fatal(err)
	}
	never := func(int, uint64, []byte) bool { t.Fatal("a refused run emitted an entry"); return false }
	if err := h.Ranges([]Scan{{0, 1}, {1, 1}}, nil, never); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("run on cceh = %v, want ErrUnsupported", err)
	}
	s := newStore(btree.New())
	if err := s.Put(1, value(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Ranges([]Scan{{0, 1}}, nil, never); !errors.Is(err, ErrClosed) {
		t.Fatalf("run on a closed store = %v, want ErrClosed", err)
	}
}
