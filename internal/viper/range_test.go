package viper

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"learnedpieces/internal/btree"
	"learnedpieces/internal/index"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/telemetry"
)

// cursorPull is one Next call a Range made on its cursor: the entries it
// asked for, the device reads the region had counted and the read stall
// it had been asked when the call was made, and when the call returned
// with the stall asked by then.
type cursorPull struct {
	asked    int
	reads    int64
	returned time.Time
	stall    int64
}

// cursorRecorder is a btree whose Range cursors log every pull. Every
// pull but a cursor's first spins for delay before it returns.
type cursorRecorder struct {
	*btree.BTree
	region *pmem.Region
	delay  time.Duration
	pulls  []cursorPull
}

func (r *cursorRecorder) Range(start uint64) index.Cursor {
	return &recordedCursor{Cursor: r.BTree.Range(start), rec: r}
}

type recordedCursor struct {
	index.Cursor
	rec    *cursorRecorder
	pulled bool
}

func (c *recordedCursor) Next(keys, vals []uint64) int {
	r := c.rec
	p := cursorPull{asked: len(keys), reads: r.region.AccessStats().Reads}
	if c.pulled {
		for start := time.Now(); time.Since(start) < r.delay; {
		}
	}
	c.pulled = true
	n := c.Cursor.Next(keys, vals)
	p.returned, p.stall = time.Now(), r.region.AccessStats().ReadStallNs
	r.pulls = append(r.pulls, p)
	return n
}

// rangeStore is a store over a cursorRecorder holding keys 1..40, each
// followed in the log by five filler keys counting up from 1<<32, so no
// two of keys 1..40 are log neighbours and the fillers behind one key
// are.
func rangeStore(t *testing.T, region *pmem.Region, delay time.Duration, opts ...Option) (*Store, *cursorRecorder) {
	t.Helper()
	rec := &cursorRecorder{BTree: btree.New(), region: region, delay: delay}
	s := Open(region, rec, opts...)
	filler := uint64(1 << 32)
	for k := uint64(1); k <= 40; k++ {
		for _, key := range []uint64{k, filler, filler + 1, filler + 2, filler + 3, filler + 4} {
			if err := s.Put(key, value(key)); err != nil {
				t.Fatal(err)
			}
		}
		filler += 5
	}
	return s, rec
}

// TestRangeSchedule pins the order of a Range round's work without a
// clock. A round of pull entries is pulled as a head of ⌈√pull⌉ entries
// and then the rest, unless the rest would be no longer than the head;
// when the rest is pulled, the head's record reads have all been issued,
// so the rest's cursor walk and sort run inside their stall. A head that
// comes back short ends the range without asking for the rest, and each
// round counts as one scan batch however it is split.
func TestRangeSchedule(t *testing.T) {
	const lastFiller = 1<<32 + 40*5 - 1
	for _, tc := range []struct {
		name   string
		start  uint64
		n      int
		pulls  [][2]int64 // entries asked and reads issued before each pull
		reads  int64
		rounds int64
	}{
		// Rounds of 16, 16 and 8: heads of 4, 4 and 3.
		{"three rounds", 1, 40, [][2]int64{{4, 0}, {12, 4}, {4, 16}, {12, 20}, {3, 32}, {5, 35}}, 40, 3},
		// A rest of 3 is no longer than the head of 3: one pull.
		{"no split", 1, 6, [][2]int64{{6, 0}}, 6, 1},
		// The smallest round that splits: a head of 3, a rest of 4.
		{"smallest split", 1, 7, [][2]int64{{3, 0}, {4, 3}}, 7, 1},
		// Three fillers are left, log neighbours read as one span: the
		// head of 4 comes back short and the rest is never asked for.
		{"short head", lastFiller - 2, 16, [][2]int64{{4, 0}}, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			region := pmem.NewRegion(8<<20, pmem.None())
			s, rec := rangeStore(t, region, 0, WithTelemetry(telemetry.New()))
			s.scanBatch = 16
			base := region.AccessStats().Reads
			rec.pulls = nil
			var got []uint64
			err := s.Range(tc.start, tc.n, func(k uint64, v []byte) bool {
				if !bytes.Equal(v, value(k)) {
					t.Fatalf("key %d: wrong value", k)
				}
				got = append(got, k)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := min(tc.n, int(lastFiller-tc.start+1)); len(got) != want {
				t.Fatalf("delivered %d entries, want %d", len(got), want)
			}
			var pulls [][2]int64
			for _, p := range rec.pulls {
				pulls = append(pulls, [2]int64{int64(p.asked), p.reads - base})
			}
			if !slices.Equal(pulls, tc.pulls) {
				t.Fatalf("pulls (entries asked, reads issued before them):\n got %v\nwant %v", pulls, tc.pulls)
			}
			if reads := region.AccessStats().Reads - base; reads != tc.reads {
				t.Fatalf("Range issued %d reads, want %d", reads, tc.reads)
			}
			if b := s.met.ScanBatches.Load(); b != tc.rounds {
				t.Fatalf("ScanBatches = %d, want %d", b, tc.rounds)
			}
		})
	}
}

// TestRangeSlowCursor checks that a Range whose cursor takes longer to
// pull the rest than the head's reads take to be served still pays the
// rest's reads from the time they were asked: the first entry is
// delivered no earlier than the stall asked after the rest's pull
// returned. A round that kept its first access's clock would credit the
// device with the time it sat idle during the pull and deliver early.
func TestRangeSlowCursor(t *testing.T) {
	const readNs = 1000
	region := pmem.NewRegion(8<<20, pmem.LatencyModel{ReadNs: readNs})
	// The head of 4 scattered records asks at most 8 blocks of stall.
	s, rec := rangeStore(t, region, 3*8*readNs*time.Nanosecond)
	var first time.Time
	var total int64
	delivered := 0
	err := s.Range(1, 16, func(k uint64, v []byte) bool {
		if delivered == 0 {
			first, total = time.Now(), region.AccessStats().ReadStallNs
		}
		if k != uint64(delivered+1) || !bytes.Equal(v, value(k)) {
			t.Fatalf("entry %d: key %d or its value is wrong", delivered, k)
		}
		delivered++
		return true
	})
	if err != nil || delivered != 16 {
		t.Fatalf("Range delivered %d entries, %v; want 16", delivered, err)
	}
	if len(rec.pulls) != 2 || rec.pulls[1].asked != 12 {
		t.Fatalf("pulls %+v, want a head of 4 and a rest of 12", rec.pulls)
	}
	rest := rec.pulls[1]
	if owed := total - rest.stall; owed < 12*readNs {
		t.Fatalf("the rest asked %d ns of stall, want at least its 12 reads' worth", owed)
	} else if waited := first.Sub(rest.returned); waited < time.Duration(owed) {
		t.Fatalf("Range delivered %v after the rest's pull, before the %d ns of stall asked after it", waited, owed)
	}
}

// TestRangesSchedule pins where a run of scans overlaps: only at a
// scan's boundary. A scan's round that may be its last — its pull
// reached the scan's limit or came back short — has the next scan's
// first round pulled behind it before it is emitted; a round that holds
// a tombstone gets its top-up pulled after that and emitted before the
// next scan; a round that leaves more to pull is emitted before anything
// else is pulled. Each scan's pulls are the ones it makes alone.
func TestRangesSchedule(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tomb  uint64 // a key whose index entry leads to a tombstone; 0 = none
		scans []Scan
		asked []int      // entries asked by each pull, in order
		keys  [][]uint64 // per scan, what it delivered
		seen  [][]int    // per scan, the pulls made before each delivery
	}{
		{"boundary", 0, []Scan{{1, 6}, {20, 6}}, []int{6, 6},
			[][]uint64{{1, 2, 3, 4, 5, 6}, {20, 21, 22, 23, 24, 25}},
			[][]int{{2, 2, 2, 2, 2, 2}, {2, 2, 2, 2, 2, 2}}},
		{"top-up", 3, []Scan{{1, 6}, {20, 6}}, []int{6, 6, 1},
			[][]uint64{{1, 2, 4, 5, 6, 7}, {20, 21, 22, 23, 24, 25}},
			[][]int{{2, 2, 2, 2, 2, 3}, {3, 3, 3, 3, 3, 3}}},
		// Rounds of 16 and 4: the first leaves more to pull, so only the
		// second (a head of 2 and no rest) has scan 1 pulled behind it.
		{"rounds", 0, []Scan{{1, 20}, {30, 3}}, []int{4, 12, 4, 3},
			[][]uint64{seqKeys(1, 20), {30, 31, 32}},
			[][]int{append(repeat(2, 16), 4, 4, 4, 4), {4, 4, 4}}},
		// Scan 0 runs out of keys in a short pull, its last round.
		{"short", 0, []Scan{{1<<32 + 198, 5}, {1, 2}}, []int{5, 2},
			[][]uint64{{1<<32 + 198, 1<<32 + 199}, {1, 2}},
			[][]int{{2, 2}, {2, 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			region := pmem.NewRegion(8<<20, pmem.None())
			s, rec := rangeStore(t, region, 0)
			s.scanBatch = 16
			if tc.tomb != 0 {
				off, err := s.appendRecord(tc.tomb, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := rec.Insert(tc.tomb, uint64(off)); err != nil {
					t.Fatal(err)
				}
			}
			rec.pulls = nil
			keys := make([][]uint64, len(tc.scans))
			seen := make([][]int, len(tc.scans))
			err := s.Ranges(tc.scans, nil, func(i int, k uint64, v []byte) bool {
				if !bytes.Equal(v, value(k)) {
					t.Fatalf("scan %d, key %d: wrong value", i, k)
				}
				keys[i] = append(keys[i], k)
				seen[i] = append(seen[i], len(rec.pulls))
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			var asked []int
			for _, p := range rec.pulls {
				asked = append(asked, p.asked)
			}
			if !slices.Equal(asked, tc.asked) {
				t.Fatalf("pulls asked %v, want %v", asked, tc.asked)
			}
			for i := range tc.scans {
				if !slices.Equal(keys[i], tc.keys[i]) || !slices.Equal(seen[i], tc.seen[i]) {
					t.Fatalf("scan %d delivered %v after pulls %v; want %v after %v", i, keys[i], seen[i], tc.keys[i], tc.seen[i])
				}
			}
		})
	}
}

func seqKeys(lo uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = lo + uint64(i)
	}
	return out
}

func repeat(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}
