package sharded

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"learnedpieces/internal/btree"
	"learnedpieces/internal/dataset"
	"learnedpieces/internal/epoch"
	"learnedpieces/internal/index"
	"learnedpieces/internal/indextest"
	"learnedpieces/internal/learned/alex"
	"learnedpieces/internal/skiplist"
)

func newSharded() index.Index {
	sample := dataset.Generate(dataset.YCSBUniform, 1024, 1)
	return New(func() index.Index { return btree.New() }, BoundariesFromSample(sample, 8))
}

func TestConformance(t *testing.T) {
	indextest.RunAll(t, "btree+sharded", newSharded)
}

// TestAsyncRetrainForwarding: the retrain pool, the drain and the
// retrain counters reach every shard's alex through the shard writer, so
// the async-equivalence property holds for the sharded wrapper too.
func TestAsyncRetrainForwarding(t *testing.T) {
	var last *Index
	indextest.RunAsyncEquivalence(t, "alex+sharded", func() index.Index {
		sample := dataset.Generate(dataset.YCSBNormal, 1024, 41)
		last = New(func() index.Index { return alex.New(alex.DefaultConfig()) }, BoundariesFromSample(sample, 2))
		return last
	})
	if n, ns := last.RetrainStats(); n == 0 || ns <= 0 {
		t.Fatalf("RetrainStats = %d retrains in %d ns, want the shards' sum", n, ns)
	}
}

func TestBoundariesFromSample(t *testing.T) {
	sorted := dataset.Generate(dataset.Sequential, 1000, 0)
	b := BoundariesFromSample(sorted, 4)
	if len(b) != 3 {
		t.Fatalf("got %d boundaries", len(b))
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatal("boundaries not increasing")
		}
	}
	if BoundariesFromSample(sorted, 1) != nil {
		t.Fatal("single shard should need no boundaries")
	}
	if BoundariesFromSample(nil, 4) != nil {
		t.Fatal("empty sample should yield nil")
	}
}

func TestConcurrentWriters(t *testing.T) {
	keys := dataset.Generate(dataset.YCSBUniform, 40000, 2)
	s := New(func() index.Index { return skiplist.New() },
		BoundariesFromSample(keys, 16))
	order := dataset.Shuffled(keys, 3)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(order); i += workers {
				if err := s.Insert(order[i], order[i]); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if s.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(keys))
	}
	for _, k := range keys {
		if v, ok := s.Get(k); !ok || v != k {
			t.Fatalf("get(%d) = %d,%v", k, v, ok)
		}
	}
	// Global scan order across shards.
	prev := uint64(0)
	n := 0
	index.Scan(s, 0, 0, func(k, v uint64) bool {
		if n > 0 && k <= prev {
			t.Fatalf("scan out of order at %d", k)
		}
		prev = k
		n++
		return true
	})
	if n != len(keys) {
		t.Fatalf("scan visited %d", n)
	}
}

// TestOptimisticReadersUnderWriters is the property test of the
// version-stamped read protocol: readers stay on the lock-free path
// (registration + stamp validation, mutex only as fallback) while
// writers overwrite every key, and must always observe either the old
// or the new value — never a miss, never a torn probe. Scanners and
// Len sweeps ride along to cover their short-critical-section paths.
// Run under -race this also proves reads never overlap a mutation.
func TestOptimisticReadersUnderWriters(t *testing.T) {
	keys := dataset.Generate(dataset.YCSBUniform, 20000, 5)
	s := New(func() index.Index { return skiplist.New() },
		BoundariesFromSample(keys, 8))
	if err := s.BulkLoad(keys, keys); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := seed
			for !stop.Load() {
				x = x*6364136223846793005 + 1442695040888963407
				k := keys[x%uint64(len(keys))]
				v, ok := s.Get(k)
				if !ok {
					t.Errorf("key %d vanished under writers", k)
					return
				}
				if v != k && v != k+1 {
					t.Errorf("key %d: impossible value %d", k, v)
					return
				}
			}
		}(uint64(r + 1))
	}

	wg.Add(1)
	go func() { // scanner: bounded scans must stay ordered and short
		defer wg.Done()
		for !stop.Load() {
			prev := uint64(0)
			n := 0
			index.Scan(s, keys[0], 64, func(k, v uint64) bool {
				if n > 0 && k <= prev {
					t.Errorf("scan out of order at %d", k)
					return false
				}
				prev = k
				n++
				return true
			})
			_ = s.Len()
		}
	}()

	const rounds = 3
	for round := 0; round < rounds; round++ {
		for _, k := range keys {
			if _, err := s.InsertReplace(k, k+1); err != nil {
				t.Fatal(err)
			}
			if _, err := s.InsertReplace(k, k); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()

	if s.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(keys))
	}
}

// TestSizesUnderWriter: Sizes walks each shard's structure, so it must
// exclude that shard's writer, as AvgDepth and RetrainStats do (the race
// detector is the assertion).
func TestSizesUnderWriter(t *testing.T) {
	keys := dataset.Generate(dataset.YCSBUniform, 20000, 7)
	s := New(func() index.Index { return btree.New() }, BoundariesFromSample(keys, 4))
	var done atomic.Bool
	go func() {
		defer done.Store(true)
		for _, k := range dataset.Shuffled(keys, 8) {
			if err := s.Insert(k, k); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for !done.Load() {
		s.Sizes()
	}
	if sz := s.Sizes(); sz.Keys == 0 {
		t.Fatal("Sizes after the inserts reports no keys")
	}
}

// TestScanStopsAtExactShardBoundary covers the count==n corner: when
// the limit is satisfied exactly as one shard's entries run out, the
// scan must not touch the next shard at all. (Before the fix, the next
// iteration computed need=0 — "unlimited" to collectShard — and
// snapshotted an entire shard under its read protocol only to discard
// every entry.) Shard visits are observable through the optimistic-read
// attempt counter, which collectShard bumps once per shard.
func TestScanStopsAtExactShardBoundary(t *testing.T) {
	s := New(func() index.Index { return btree.New() }, []uint64{100})
	for k := uint64(0); k < 10; k++ {
		if err := s.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(100); k < 110; k++ {
		if err := s.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	before := epoch.GlobalStats().ReadAttempts
	var got []uint64
	index.Scan(s, 0, 10, func(k, v uint64) bool {
		got = append(got, k)
		return true
	})
	attempts := epoch.GlobalStats().ReadAttempts - before
	if len(got) != 10 || got[0] != 0 || got[9] != 9 {
		t.Fatalf("scan visited %v", got)
	}
	if attempts != 1 {
		t.Fatalf("scan registered on %d shards, want 1 (limit hit at shard 0's last entry)", attempts)
	}
}

func TestBulkLoadSplitsAtBoundaries(t *testing.T) {
	keys := dataset.Generate(dataset.Sequential, 1000, 0)
	s := New(func() index.Index { return btree.New() }, []uint64{250, 500, 750})
	if err := s.BulkLoad(keys, keys); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1000 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Shard populations reflect the boundaries.
	want := []int{249, 250, 250, 251}
	for i, sh := range s.shards {
		if sh.idx.Len() != want[i] {
			t.Fatalf("shard %d has %d keys, want %d", i, sh.idx.Len(), want[i])
		}
	}
}

// TestPadLayout pins the cache-line pads: each pad ends on a 64-byte
// boundary and a struct ending in one is a whole number of lines, so a
// field added beside a pad fails here instead of sharing a line.
func TestPadLayout(t *testing.T) {
	var s shard
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"offsetof shard.active", unsafe.Offsetof(s.active), 64},
		{"offsetof shard.mu", unsafe.Offsetof(s.mu), 128},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}
