package pla

import (
	"math/rand"
	"sort"
	"testing"
)

// insert adds an absent key; false means the node is full.
func insert(g *GappedNode, key, value uint64) bool {
	_, ok := g.InsertReplace(key, value, nil)
	return ok
}

// checkGapInvariant verifies the ALEX gap representation: Keys is
// non-decreasing, every gap slot holds a copy of the nearest occupied key
// to its left (0 for leading gaps), and NumKeys matches the bitmap.
func checkGapInvariant(t *testing.T, g *GappedNode) {
	t.Helper()
	var last uint64
	count := 0
	for i := range g.Keys {
		if g.Occ.Has(i) {
			if count > 0 && g.Keys[i] <= last && last != 0 {
				// Occupied keys must be strictly increasing.
				t.Fatalf("slot %d: occupied key %d <= previous %d", i, g.Keys[i], last)
			}
			last = g.Keys[i]
			count++
		} else if g.Keys[i] != last {
			t.Fatalf("slot %d: gap copy %d != left neighbour %d", i, g.Keys[i], last)
		}
	}
	if count != g.NumKeys {
		t.Fatalf("NumKeys %d != occupied %d", g.NumKeys, count)
	}
	for i := 1; i < len(g.Keys); i++ {
		if g.Keys[i] < g.Keys[i-1] {
			t.Fatalf("Keys not sorted at %d", i)
		}
	}
}

// TestGapInsertRemoveInvariant drives a gapped node with random inserts
// and removals, checking the representation invariant and a reference
// model throughout.
func TestGapInsertRemoveInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	base := make([]uint64, 64)
	for i := range base {
		base[i] = uint64(rng.Intn(100000)*2 + 2) // even keys, >= 2
	}
	sorted := append([]uint64(nil), base...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	uniq := sorted[:0]
	for i, k := range sorted {
		if i == 0 || k != sorted[i-1] {
			uniq = append(uniq, k)
		}
	}
	g := BuildLSAGap(uniq, uniq, 0.5)
	checkGapInvariant(t, g)
	ref := make(map[uint64]uint64, len(uniq))
	for _, k := range uniq {
		ref[k] = k
	}
	for op := 0; op < 3000; op++ {
		k := uint64(rng.Intn(200000) + 1)
		if _, exists := ref[k]; !exists && rng.Intn(2) == 0 && g.NumKeys < g.Capacity() {
			if insert(g, k, k*3) {
				ref[k] = k * 3
			}
		} else if exists := ref[k]; exists != 0 && rng.Intn(4) == 0 {
			slot, ok := g.SlotOf(k)
			if !ok {
				t.Fatalf("op %d: present key %d not found", op, k)
			}
			g.Remove(slot)
			delete(ref, k)
		}
		if op%100 == 0 {
			checkGapInvariant(t, g)
			checkSeeks(t, g)
			for rk, rv := range ref {
				slot, ok := g.SlotOf(rk)
				if !ok || g.Values[slot] != rv {
					t.Fatalf("op %d: key %d -> (%d,%v), want %d", op, rk, slot, ok, rv)
				}
			}
		}
	}
	checkGapInvariant(t, g)
	// Absent keys are not found (odd keys were never inserted as base).
	for i := 0; i < 200; i++ {
		k := uint64(rng.Intn(400000) + 300001)
		if _, exists := ref[k]; exists {
			continue
		}
		if _, ok := g.SlotOf(k); ok {
			t.Fatalf("absent key %d found", k)
		}
	}
}

// TestGapInsertFillsToCapacity fills a node completely; every insert up
// to capacity must succeed and the final one must fail.
func TestGapInsertFillsToCapacity(t *testing.T) {
	keys := []uint64{100, 200, 300, 400}
	g := BuildLSAGap(keys, keys, 0.4) // capacity ~11
	cap := g.Capacity()
	next := uint64(1000)
	for g.NumKeys < cap {
		if !insert(g, next, next) {
			t.Fatalf("insert failed with %d/%d filled", g.NumKeys, cap)
		}
		checkGapInvariant(t, g)
		next += 10
	}
	if insert(g, 9999999, 1) {
		t.Fatal("insert succeeded on a full node")
	}
}

// TestGapInsertBelowAllKeys exercises the leading-gap path.
func TestGapInsertBelowAllKeys(t *testing.T) {
	keys := []uint64{1000, 2000, 3000}
	g := BuildLSAGap(keys, keys, 0.5)
	if !insert(g, 5, 55) {
		t.Fatal("insert below all keys failed")
	}
	checkGapInvariant(t, g)
	slot, ok := g.SlotOf(5)
	if !ok || g.Values[slot] != 55 {
		t.Fatalf("key 5: (%d,%v)", slot, ok)
	}
	for _, k := range keys {
		if _, ok := g.SlotOf(k); !ok {
			t.Fatalf("key %d lost", k)
		}
	}
}

// checkSeeks compares SeekGE and SeekLE with a slot-by-slot walk of the
// occupied slots, from both ends of the key space and at, just below and
// just above every slot's key (live keys and the gap copies alike).
func checkSeeks(t *testing.T, g *GappedNode) {
	t.Helper()
	probes := []uint64{0, 1, ^uint64(0) - 1, ^uint64(0)}
	for _, k := range g.Keys {
		probes = append(probes, k-1, k, k+1) // wraps at the ends on purpose
	}
	for _, key := range probes {
		ge, le := g.Capacity(), -1
		for i, k := range g.Keys {
			used := g.Occ.Has(i)
			if used && k >= key && ge == g.Capacity() {
				ge = i
			}
			if used && k <= key {
				le = i
			}
		}
		if got := g.SeekGE(key); got != ge {
			t.Fatalf("SeekGE(%d) = %d, want %d (keys %v occ %b)", key, got, ge, g.Keys, g.Occ)
		}
		if got := g.SeekLE(key); got != le {
			t.Fatalf("SeekLE(%d) = %d, want %d (keys %v occ %b)", key, got, le, g.Keys, g.Occ)
		}
	}
}

// TestGapSeek: the seeks a cursor opens with land on occupied slots on
// nodes with leading, interior and trailing gap runs, with key 0 live or
// deleted (its copies are indistinguishable from never-filled leading
// gaps), on a full, a single-key, an emptied and a zero-capacity node.
func TestGapSeek(t *testing.T) {
	remove := func(g *GappedNode, keys ...uint64) {
		for _, k := range keys {
			slot, ok := g.SlotOf(k)
			if !ok {
				t.Fatalf("key %d not found", k)
			}
			g.Remove(slot)
		}
	}
	keys := []uint64{0, 10, 20, 30, 40, 50, 60, 70, 80, ^uint64(0)}
	for _, tc := range []struct {
		name    string
		density float64
		dead    []uint64
	}{
		{"as built, key 0 live", 0.4, nil},
		{"packed", 1, nil},
		{"leading run: head deleted", 0.4, []uint64{0, 10, 20}},
		{"interior run", 0.4, []uint64{30, 40, 50}},
		{"interior run, packed", 1, []uint64{30, 40, 50}},
		{"trailing run: tail deleted", 0.4, []uint64{70, 80, ^uint64(0)}},
		{"all three", 0.4, []uint64{0, 10, 40, 50, 80, ^uint64(0)}},
		{"one key left", 0.4, keys[:9]},
		{"only key 0 left", 0.4, keys[1:]},
		{"emptied", 0.4, keys},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := BuildLSAGap(keys, keys, tc.density)
			remove(g, tc.dead...)
			checkGapInvariant(t, g)
			checkSeeks(t, g)
		})
	}
	checkSeeks(t, BuildLSAGap(nil, nil, 0.7))
}
