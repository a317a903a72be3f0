package viper

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"learnedpieces/internal/btree"
	"learnedpieces/internal/dataset"
	"learnedpieces/internal/epoch"
	"learnedpieces/internal/index"
	"learnedpieces/internal/learned/alex"
	"learnedpieces/internal/learned/pgm"
	"learnedpieces/internal/pmem"
)

func value(i uint64) []byte {
	v := make([]byte, DefaultValueSize)
	copy(v, fmt.Sprintf("value-%d", i))
	return v
}

func newStore(idx index.Index) *Store {
	return Open(pmem.NewRegion(32<<20, pmem.None()), idx)
}

func TestConcurrentPuts(t *testing.T) {
	keys := dataset.Generate(dataset.YCSBUniform, 20000, 4)
	s := newStore(newFinedex())
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := make([]byte, 64)
			for i := w; i < len(keys); i += workers {
				v[0] = byte(i)
				if err := s.Put(keys[i], v); err != nil {
					t.Errorf("put: %v", err)
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
		if _, ok := s.Get(k); !ok {
			t.Fatalf("key %d missing after concurrent puts", k)
		}
	}
	// Recovery sees every record despite page rollovers under concurrency.
	s.DropIndex(btree.New())
	if err := s.Recover(btree.New()); err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(keys) {
		t.Fatalf("recovered Len = %d", s.Len())
	}
}

func TestCompactReclaimsGarbage(t *testing.T) {
	region := pmem.NewRegion(64<<20, pmem.None())
	s := Open(region, btree.New())
	keys := dataset.Generate(dataset.YCSBUniform, 3000, 6)
	// Load, then overwrite everything several times and delete a third:
	// most of the log becomes garbage.
	for round := 0; round < 4; round++ {
		for _, k := range keys {
			if err := s.Put(k, value(k+uint64(round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < len(keys); i += 3 {
		if _, err := s.Delete(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	pagesBefore := len(logPages(s))

	reclaimed, err := s.Compact(btree.New())
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed <= 0 {
		t.Fatalf("reclaimed %d bytes", reclaimed)
	}
	if len(logPages(s)) >= pagesBefore {
		t.Fatalf("pages %d -> %d, expected shrink", pagesBefore, len(logPages(s)))
	}
	// The physical frees are epoch-deferred: with no reader pinned, a
	// few advances end the grace period and run them.
	for i := 0; i < 3; i++ {
		epoch.Advance()
	}
	if region.FreeChunks(PageSize) == 0 {
		t.Fatal("no pages returned to the allocator after the grace period")
	}
	// State preserved: deleted keys gone, survivors hold round-3 values.
	want := len(keys) - (len(keys)+2)/3
	if s.Len() != want {
		t.Fatalf("Len = %d, want %d", s.Len(), want)
	}
	for i, k := range keys {
		v, ok := s.Get(k)
		if i%3 == 0 {
			if ok {
				t.Fatalf("deleted key %d visible after compaction", k)
			}
			continue
		}
		if !ok || !bytes.Equal(v, value(k+3)) {
			t.Fatalf("key %d wrong after compaction", k)
		}
	}
	// New writes reuse freed pages instead of growing the region (the bump
	// head is monotonic, so "no growth" is the reuse signal).
	allocatedAfter := region.Allocated()
	for _, k := range keys[:500] {
		if err := s.Put(k, value(k)); err != nil {
			t.Fatal(err)
		}
	}
	if region.Allocated() > allocatedAfter {
		t.Fatalf("region grew after compaction: %d -> %d", allocatedAfter, region.Allocated())
	}
	// Recovery still works over the compacted log. The re-puts above
	// revived the deleted keys among keys[:500] (every third).
	want += (500 + 2) / 3
	s.DropIndex(btree.New())
	if err := s.Recover(btree.New()); err != nil {
		t.Fatal(err)
	}
	if s.Len() != want {
		t.Fatalf("recovered Len = %d, want %d", s.Len(), want)
	}
}

func TestPageRollover(t *testing.T) {
	s := newStore(btree.New())
	// Values sized so records straddle page boundaries frequently.
	big := make([]byte, 100_000)
	for i := uint64(1); i <= 50; i++ {
		big[0] = byte(i)
		if err := s.Put(i, big); err != nil {
			t.Fatal(err)
		}
	}
	if len(logPages(s)) < 2 {
		t.Fatalf("expected multiple pages, got %d", len(logPages(s)))
	}
	for i := uint64(1); i <= 50; i++ {
		v, ok := s.Get(i)
		if !ok || v[0] != byte(i) || len(v) != len(big) {
			t.Fatalf("key %d corrupted across pages", i)
		}
	}
	// Recovery across pages.
	s.DropIndex(btree.New())
	if err := s.Recover(btree.New()); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 50 {
		t.Fatalf("recovered %d", s.Len())
	}
}

// probeCounter counts the index calls a store makes. It forwards Delete
// (an embedded index.Index would hide it) so the store can delete.
type probeCounter struct {
	index.Index
	gets, inserts, upserts int
}

func (c *probeCounter) Get(key uint64) (uint64, bool) {
	c.gets++
	return c.Index.Get(key)
}

func (c *probeCounter) Insert(key, value uint64) error {
	c.inserts++
	return c.Index.Insert(key, value)
}

func (c *probeCounter) InsertReplace(key, value uint64) (bool, error) {
	c.upserts++
	return c.Index.InsertReplace(key, value)
}

func (c *probeCounter) Delete(key uint64) bool { return index.Seams(c.Index).Delete.Delete(key) }

// TestPutDescendsOnce: a Put is one InsertReplace and nothing else — no
// existence probe before it, no plain Insert — on the primary index and
// on two that had no upsert of their own before, and the live count it
// keeps from the answers stays exact through inserts, updates, deletes
// and re-inserts.
func TestPutDescendsOnce(t *testing.T) {
	for name, idx := range map[string]index.Index{
		"alex":  alex.New(alex.DefaultConfig()),
		"pgm":   pgm.New(pgm.DefaultConfig()),
		"btree": btree.New(),
	} {
		t.Run(name, func(t *testing.T) {
			c := &probeCounter{Index: idx}
			s := newStore(c)
			keys := dataset.Generate(dataset.OSMLike, 3000, 5)
			puts := 0
			put := func(k uint64) {
				t.Helper()
				before := *c
				if err := s.Put(k, value(k)); err != nil {
					t.Fatal(err)
				}
				puts++
				if c.upserts != before.upserts+1 || c.gets != before.gets || c.inserts != before.inserts {
					t.Fatalf("Put(%d) made %d InsertReplace, %d Get, %d Insert calls; want 1, 0, 0",
						k, c.upserts-before.upserts, c.gets-before.gets, c.inserts-before.inserts)
				}
			}
			live := make(map[uint64]bool)
			for i, k := range dataset.Shuffled(keys, 6) {
				put(k)
				live[k] = true
				switch i % 5 {
				case 1: // update, or insert early, another key
					put(keys[i/2])
					live[keys[i/2]] = true
				case 3: // delete one, sometimes an absent one
					d := keys[(i*7)%len(keys)]
					if ok, err := s.Delete(d); err != nil || ok != live[d] {
						t.Fatalf("Delete(%d) = %v,%v with live=%v", d, ok, err, live[d])
					}
					delete(live, d)
				}
				if s.Len() != len(live) {
					t.Fatalf("after %d puts: Len = %d, want %d", puts, s.Len(), len(live))
				}
			}
			if c.upserts != puts {
				t.Fatalf("%d InsertReplace calls for %d puts", c.upserts, puts)
			}
		})
	}
}

// logPages is the store's log as the page walk finds it, oldest page first.
func logPages(s *Store) []int64 { return walkPages(s.region).log }
