package viper

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/epoch"
	"learnedpieces/internal/index"
	"learnedpieces/internal/learned/finedex"
	"learnedpieces/internal/pmem"
)

// newFinedex builds the concurrent-write index the lock-free read-path
// tests run against.
func newFinedex() index.Index { return finedex.New(finedex.DefaultConfig()) }

// startReaders runs four goroutines on the lock-free read paths until the
// returned function is called: each draws a preloaded key and in turn
// Gets it, MultiGets it in a batch of 16 that names it twice, and Ranges
// 300 entries (two cursor rounds) from it. Every value must equal its
// key-derived content byte for byte, no preloaded key may be missing, and
// a Range must deliver the preloaded keys from its start in order with
// none skipped; keys the test's writer adds sort above them and are
// ignored. keys is sorted.
func startReaders(t *testing.T, s *Store, keys []uint64, during string) (stop func()) {
	var stopped atomic.Bool
	var wg sync.WaitGroup
	check := func(k uint64, v []byte) bool {
		if v == nil {
			t.Errorf("key %d vanished during %s", k, during)
			return false
		}
		if !bytes.Equal(v, value(k)) {
			t.Errorf("key %d: corrupt value during %s", k, during)
			return false
		}
		return true
	}
	last := keys[len(keys)-1]
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(x uint64) {
			defer wg.Done()
			batch := make([]uint64, 16)
			for op := 0; !stopped.Load(); op++ {
				x = x*6364136223846793005 + 1442695040888963407
				at := int(x % uint64(len(keys)))
				switch op % 3 {
				case 0:
					if v, _ := s.Get(keys[at]); !check(keys[at], v) {
						return
					}
				case 1:
					for i := range batch {
						batch[i] = keys[(at+i*97)%len(keys)]
					}
					batch[15] = batch[0]
					for i, v := range s.MultiGet(batch) {
						if !check(batch[i], v) {
							return
						}
					}
				case 2:
					next, good := at, true
					err := s.Range(keys[at], 300, func(k uint64, v []byte) bool {
						if k > last {
							return false // the writer's keys
						}
						good = next < len(keys) && k == keys[next] && check(k, v)
						next++
						return good
					})
					if want := min(at+300, len(keys)); err != nil || !good || next != want {
						t.Errorf("Range from %d during %s: %d preloaded entries, the last one right: %v, want %d (err %v)",
							keys[at], during, next-at, good, want-at, err)
						return
					}
				}
			}
		}(uint64(r + 1))
	}
	return func() {
		stopped.Store(true)
		wg.Wait()
	}
}

// stamped is a record value whose first 16 bytes name its key and version.
func stamped(key, ver uint64) []byte {
	v := make([]byte, DefaultValueSize)
	binary.LittleEndian.PutUint64(v[0:8], key)
	binary.LittleEndian.PutUint64(v[8:16], ver)
	return v
}

// TestConcurrentUpdatesServeOwnKey is the cross-key oracle for the read
// paths under updates: two writers rewrite alternate preloaded keys with
// rising versions, rolling pages as they go, while four readers Get,
// MultiGet 16 keys (one of them twice) and Range 300 entries. Every value
// must carry its own key's stamp, and no reader may see a key's version
// go backwards. Afterwards every key reads its last version.
func TestConcurrentUpdatesServeOwnKey(t *testing.T) {
	keys := dataset.Generate(dataset.YCSBUniform, 4000, 23)
	s := Open(pmem.NewRegion(64<<20, pmem.None()), newFinedex())
	for _, k := range keys {
		if err := s.Put(k, stamped(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	const writers, versions = 2, 8

	var stopped atomic.Bool
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(x uint64) {
			defer readers.Done()
			seen := make([]uint64, len(keys)) // per key position, the newest version read
			check := func(op string, i int, v []byte) bool {
				if v == nil {
					t.Errorf("%s: key %d vanished", op, keys[i])
					return false
				}
				k, ver := binary.LittleEndian.Uint64(v[0:8]), binary.LittleEndian.Uint64(v[8:16])
				if k != keys[i] {
					t.Errorf("%s: key %d served key %d's record", op, keys[i], k)
					return false
				}
				if ver < seen[i] {
					t.Errorf("%s: key %d read version %d after %d", op, k, ver, seen[i])
					return false
				}
				seen[i] = ver
				return true
			}
			batch, pos := make([]uint64, 16), make([]int, 16)
			for op := 0; !stopped.Load(); op++ {
				x = x*6364136223846793005 + 1442695040888963407
				at := int(x % uint64(len(keys)))
				switch op % 3 {
				case 0:
					if v, _ := s.Get(keys[at]); !check("Get", at, v) {
						return
					}
				case 1:
					for i := range pos {
						pos[i] = (at + i*97) % len(keys)
					}
					pos[15] = pos[0]
					for i, p := range pos {
						batch[i] = keys[p]
					}
					for i, v := range s.MultiGet(batch) {
						if !check("MultiGet", pos[i], v) {
							return
						}
					}
				case 2:
					next, good := at, true
					err := s.Range(keys[at], 300, func(k uint64, v []byte) bool {
						good = next < len(keys) && k == keys[next] && check("Range", next, v)
						next++
						return good
					})
					if want := min(at+300, len(keys)); err != nil || !good || next != want {
						t.Errorf("Range from %d: %d entries, the last one right: %v, want %d (err %v)",
							keys[at], next-at, good, want-at, err)
						return
					}
				}
			}
		}(uint64(r + 1))
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ver := uint64(1); ver <= versions; ver++ {
				for i := w; i < len(keys); i += writers {
					if err := s.Put(keys[i], stamped(keys[i], ver)); err != nil {
						t.Errorf("Put(%d): %v", keys[i], err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	stopped.Store(true)
	readers.Wait()

	if len(logPages(s)) < 4 {
		t.Fatalf("the writers filled %d pages, want a few rollovers", len(logPages(s)))
	}
	for _, k := range keys {
		v, ok := s.Get(k)
		if !ok || binary.LittleEndian.Uint64(v[0:8]) != k || binary.LittleEndian.Uint64(v[8:16]) != versions {
			t.Fatalf("key %d after the writers: want its own record at version %d", k, versions)
		}
	}
}

// TestConcurrentGetDuringRollover drives readers through the lock-free
// Get, MultiGet and Range paths while a writer forces page rollovers
// (each rollover takes s.mu and installs a fresh current page): the
// readers must never see a missing or corrupt value for the preloaded
// keys. Run under -race this is the property test for the view/pin
// protocol on the append path.
func TestConcurrentGetDuringRollover(t *testing.T) {
	keys := dataset.Generate(dataset.YCSBUniform, 4000, 11)
	s := Open(pmem.NewRegion(256<<20, pmem.None()), newFinedex())
	for _, k := range keys {
		if err := s.Put(k, value(k)); err != nil {
			t.Fatal(err)
		}
	}

	stop := startReaders(t, s, keys, "rollover")

	// Writer: fresh keys with values big enough that every few Puts roll
	// a 1 MB page over.
	big := make([]byte, 64<<10)
	for i := uint64(0); i < 2000; i++ {
		if err := s.Put(^i, big); err != nil {
			t.Fatal(err)
		}
	}
	stop()

	if got := s.Metrics(); got != nil {
		t.Fatal("telemetry disabled in this test") // guard against accidental setup drift
	}
}

// TestConcurrentGetDuringCompact is the reclamation property test:
// readers stay on the lock-free read paths while Compact swaps the view
// and retires the old pages. The epoch manager must keep every old page
// alive until the pinned readers are done — premature reuse would
// corrupt the values the readers verify (and -race would flag the
// reader/zeroing overlap). Writers are quiesced, per Compact's
// contract.
func TestConcurrentGetDuringCompact(t *testing.T) {
	region := pmem.NewRegion(256<<20, pmem.None())
	keys := dataset.Generate(dataset.YCSBUniform, 4000, 13)
	s := Open(region, newFinedex())
	// Several overwrite rounds so compaction has garbage to drop.
	for round := 0; round < 3; round++ {
		for _, k := range keys {
			if err := s.Put(k, value(k)); err != nil {
				t.Fatal(err)
			}
		}
	}

	stop := startReaders(t, s, keys, "compaction")

	if _, err := s.Compact(newFinedex()); err != nil {
		t.Fatal(err)
	}
	stop()

	// With the readers gone the grace period can end: the retired pages
	// must reach the allocator.
	for i := 0; i < 5; i++ {
		epoch.Advance()
	}
	if region.FreeChunks(PageSize) == 0 {
		t.Fatal("compacted pages never reached the allocator")
	}
	for _, k := range keys {
		v, ok := s.Get(k)
		if !ok || !bytes.Equal(v, value(k)) {
			t.Fatalf("key %d wrong after compaction", k)
		}
	}
}

// TestConcurrentGetDuringRecoverInstall exercises the view swap itself
// under readers: DropIndex/Recover publish new views while readers spin.
// Readers may observe the empty index (misses) between the drop and the
// recover — the property is no torn view and no crash, not read-your-
// writes across a simulated crash.
func TestConcurrentGetDuringRecoverInstall(t *testing.T) {
	keys := dataset.Generate(dataset.YCSBUniform, 2000, 17)
	s := Open(pmem.NewRegion(64<<20, pmem.None()), newFinedex())
	for _, k := range keys {
		if err := s.Put(k, value(k)); err != nil {
			t.Fatal(err)
		}
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
				if v, ok := s.Get(k); ok && !bytes.Equal(v, value(k)) {
					t.Errorf("key %d: corrupt value during view swap", k)
					return
				}
			}
		}(uint64(r + 1))
	}

	for i := 0; i < 5; i++ {
		s.DropIndex(newFinedex())
		if err := s.Recover(newFinedex()); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()

	for _, k := range keys {
		if v, ok := s.Get(k); !ok || !bytes.Equal(v, value(k)) {
			t.Fatalf("key %d wrong after recover", k)
		}
	}
}
