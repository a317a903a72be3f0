package viper

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"learnedpieces/internal/btree"
	"learnedpieces/internal/index"
	"learnedpieces/internal/learned/alex"
	"learnedpieces/internal/pmem"
)

// lookupCall is one index lookup MultiGet made: the keys it asked and
// the device reads the region had counted when it was made.
type lookupCall struct {
	keys  []uint64
	reads int64
}

// lookupRecorder wraps an index and logs every Get. It has no batch
// seam, so MultiGet resolves its groups key at a time.
type lookupRecorder struct {
	index.Index
	region *pmem.Region
	calls  []lookupCall
}

func (r *lookupRecorder) log(keys []uint64) {
	r.calls = append(r.calls, lookupCall{slices.Clone(keys), r.region.AccessStats().Reads})
}

func (r *lookupRecorder) Get(key uint64) (uint64, bool) {
	r.log([]uint64{key})
	return r.Index.Get(key)
}

// batchRecorder is a lookupRecorder with the batch seam, logging every
// GetBatch call as well.
type batchRecorder struct{ *lookupRecorder }

func (r batchRecorder) GetBatch(keys, vals []uint64, found []bool) {
	r.log(keys)
	index.Seams(r.Index).Batch.GetBatch(keys, vals, found)
}

// TestMultiGetSchedule pins the order of a MultiGet's work without a
// clock. A batch of n keys is looked up in ascending key order, in
// groups of ⌈√n⌉ keys; a run of equal keys that straddles a group
// boundary stays in the earlier group; and when a group is looked up, the
// record read of every distinct hit of the earlier groups has already
// been issued, so the group's descents run inside those reads' stalls.
// With the batch seam each group of two or more positions is one GetBatch
// call; without it, and for a group of one, each position is one Get.
// The stored keys are no log neighbours, so every distinct hit is one
// read.
func TestMultiGetSchedule(t *testing.T) {
	// Keys 1..20 with five fillers between any two; 100 is absent.
	stored := func(t *testing.T, wrap func(index.Index, *pmem.Region) index.Index) (*Store, *lookupRecorder) {
		region := pmem.NewRegion(8<<20, pmem.None())
		inner := btree.New()
		s := Open(region, wrap(inner, region))
		filler := uint64(1 << 32)
		for k := uint64(1); k <= 20; k++ {
			for _, key := range []uint64{k, filler, filler + 1, filler + 2, filler + 3, filler + 4} {
				if err := s.Put(key, value(key)); err != nil {
					t.Fatal(err)
				}
			}
			filler += 5
		}
		switch r := s.Index().(type) {
		case *lookupRecorder:
			return s, r
		case batchRecorder:
			return s, r.lookupRecorder
		}
		t.Fatal("no recorder installed")
		return nil, nil
	}
	plain := func(inner index.Index, region *pmem.Region) index.Index {
		return &lookupRecorder{Index: inner, region: region}
	}
	batched := func(inner index.Index, region *pmem.Region) index.Index {
		return batchRecorder{&lookupRecorder{Index: inner, region: region}}
	}
	distinct := []uint64{5, 1, 12, 9, 16, 3, 7, 14, 2, 10, 6, 15, 11, 4, 13, 8}
	for _, tc := range []struct {
		name   string
		batch  []uint64
		groups [][]uint64 // the batch's keys, in key order, as grouped
	}{
		{"16 distinct keys", distinct, [][]uint64{
			{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}, {13, 14, 15, 16},
		}},
		// 14 keys, groups of 4: the five 1s straddle the first boundary,
		// the 5s the one four positions later; the absent key 100, asked
		// twice, closes the last group.
		{"equal keys across boundaries", []uint64{5, 1, 100, 3, 1, 7, 1, 2, 5, 1, 6, 4, 100, 1}, [][]uint64{
			{1, 1, 1, 1, 1}, {2, 3, 4, 5, 5}, {6, 7, 100, 100},
		}},
	} {
		for _, seam := range []struct {
			name string
			wrap func(index.Index, *pmem.Region) index.Index
		}{{"batch seam", batched}, {"no seam", plain}} {
			t.Run(tc.name+"/"+seam.name, func(t *testing.T) {
				s, rec := stored(t, seam.wrap)
				base := s.region.AccessStats().Reads
				vals := s.MultiGet(tc.batch)
				for i, k := range tc.batch {
					if want := value(k); k == 100 && vals[i] != nil || k != 100 && !bytes.Equal(vals[i], want) {
						t.Fatalf("position %d (key %d): got %d bytes", i, k, len(vals[i]))
					}
				}
				var want []lookupCall
				issued := base
				for _, g := range tc.groups {
					if seam.name == "batch seam" && len(g) > 1 {
						want = append(want, lookupCall{g, issued})
					} else {
						for _, k := range g {
							want = append(want, lookupCall{[]uint64{k}, issued})
						}
					}
					for i, k := range g {
						if k != 100 && (i == 0 || k != g[i-1]) {
							issued++ // one read per distinct hit
						}
					}
				}
				if !slices.EqualFunc(rec.calls, want, func(a, b lookupCall) bool {
					return slices.Equal(a.keys, b.keys) && a.reads == b.reads
				}) {
					t.Fatalf("lookups (keys, reads issued before them):\n got %v\nwant %v", rec.calls, want)
				}
				if got := s.region.AccessStats().Reads; got != issued {
					t.Fatalf("MultiGet issued %d reads, want %d", got-base, issued-base)
				}
			})
		}
	}

	t.Run("allocs", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector drops sync.Pool items at random")
		}
		s := Open(pmem.NewRegion(8<<20, pmem.None()), alex.New(alex.DefaultConfig()))
		keys := make([]uint64, 4096)
		for i := range keys {
			keys[i] = uint64(i)*7919 + 1
		}
		if err := s.BulkPut(keys, nil); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		batch := make([]uint64, 16)
		for i := range batch {
			batch[i] = keys[rng.Intn(len(keys))]
		}
		s.MultiGet(batch) // size the pooled scratch
		if a := testing.AllocsPerRun(100, func() { s.MultiGet(batch) }); a > 1 {
			t.Fatalf("a 16-key MultiGet on alex allocates %v times, want at most 1 (the returned slice)", a)
		}
	})
}

// slowIndex wraps an index whose every Get spins for delay, longer than
// a record's stall, and logs when each Get returned and how much read
// stall the region had been asked by then.
type slowIndex struct {
	index.Index
	region *pmem.Region
	delay  time.Duration
	done   []descent
}

type descent struct {
	at    time.Time
	asked int64
}

func (x *slowIndex) Get(key uint64) (uint64, bool) {
	for start := time.Now(); time.Since(start) < x.delay; {
	}
	off, ok := x.Index.Get(key)
	x.done = append(x.done, descent{time.Now(), x.region.AccessStats().ReadStallNs})
	return off, ok
}

// TestMultiGetSlowDescents checks that a MultiGet whose descents outlast
// the stalls the earlier groups asked still pays every read from the
// time it was asked: after each descent returns, the batch waits at
// least for the stall asked after it. A round that kept its first
// access's clock would credit the device with the time it sat idle
// during the descents and return early.
func TestMultiGetSlowDescents(t *testing.T) {
	const readNs = 1000
	region := pmem.NewRegion(8<<20, pmem.LatencyModel{ReadNs: readNs})
	idx := &slowIndex{Index: btree.New(), region: region, delay: 3 * readNs * time.Nanosecond}
	s := Open(region, idx)
	filler := uint64(1 << 32)
	for k := uint64(1); k <= 16; k++ {
		for _, key := range []uint64{k, filler, filler + 1, filler + 2, filler + 3, filler + 4} {
			if err := s.Put(key, value(key)); err != nil {
				t.Fatal(err)
			}
		}
		filler += 5
	}
	batch := []uint64{5, 1, 12, 9, 16, 3, 7, 14, 2, 10, 6, 15, 11, 4, 13, 8}
	idx.done = nil
	vals := s.MultiGet(batch)
	end, total := time.Now(), region.AccessStats().ReadStallNs
	for i, k := range batch {
		if !bytes.Equal(vals[i], value(k)) {
			t.Fatalf("position %d (key %d): got %d bytes", i, k, len(vals[i]))
		}
	}
	if len(idx.done) != len(batch) {
		t.Fatalf("%d descents, want %d", len(idx.done), len(batch))
	}
	last := idx.done[len(idx.done)-1]
	if total-last.asked < 4*readNs {
		t.Fatalf("the last group asked %d ns of stall, want at least its 4 reads' worth", total-last.asked)
	}
	for i, d := range idx.done {
		if waited, owed := end.Sub(d.at), time.Duration(total-d.asked); waited < owed {
			t.Fatalf("MultiGet returned %v after descent %d, before the %v of stall asked after it", waited, i, owed)
		}
	}
}

// overwrittenIndex answers successive Gets of key with the offsets in
// offs, one after another, as if the key were overwritten between
// lookups.
type overwrittenIndex struct {
	index.Index
	key  uint64
	offs []uint64
}

func (x *overwrittenIndex) Get(key uint64) (uint64, bool) {
	if key == x.key && len(x.offs) > 0 {
		off := x.offs[0]
		x.offs = x.offs[1:]
		return off, true
	}
	return x.Index.Get(key)
}

// TestMultiGetEqualKeysInCallerOrder: the positions of a repeated key
// are looked up in the caller's order, so when the key is overwritten
// between those lookups a later position never reads an older version
// than an earlier one.
func TestMultiGetEqualKeysInCallerOrder(t *testing.T) {
	const key = 50
	inner := btree.New()
	idx := &overwrittenIndex{Index: inner, key: key}
	s := Open(pmem.NewRegion(8<<20, pmem.None()), idx)
	for k := uint64(1); k <= 60; k++ {
		if err := s.Put(k, value(k)); err != nil {
			t.Fatal(err)
		}
	}
	var versions [][]byte
	for ver := uint64(1); ver <= 3; ver++ {
		v := value(1000 + ver)
		if err := s.Put(key, v); err != nil {
			t.Fatal(err)
		}
		off, _ := inner.Get(key)
		idx.offs = append(idx.offs, off)
		versions = append(versions, v)
	}
	batch := make([]uint64, 0, 48)
	for k := uint64(60); len(batch) < 48; k-- {
		if k != key {
			batch = append(batch, k)
		}
	}
	at := []int{3, 21, 44}
	for _, i := range at {
		batch[i] = key
	}
	vals := s.MultiGet(batch)
	for n, i := range at {
		if !bytes.Equal(vals[i], versions[n]) {
			t.Fatalf("position %d, the key's lookup %d: got %.12q, want %.12q", i, n, vals[i], versions[n])
		}
	}
}
