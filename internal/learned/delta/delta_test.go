package delta

import (
	"math/rand"
	"slices"
	"testing"
)

// entry is one oracle value: the version a key holds.
type entry struct {
	val  uint64
	dead bool
}

// randomRun draws a sorted run of up to n distinct keys from a small
// domain that includes 0 and 2^64-1, a quarter of them tombstones.
func randomRun(rng *rand.Rand, n int, withDead bool) Run {
	domain := []uint64{0, 1, 2, 3, 1 << 32, 1<<53 + 1, 1 << 63, ^uint64(0) - 1, ^uint64(0)}
	for len(domain) < 64 {
		domain = append(domain, rng.Uint64())
	}
	seen := map[uint64]bool{}
	var r Run
	for i := 0; i < n; i++ {
		k := domain[rng.Intn(len(domain))]
		if seen[k] {
			continue
		}
		seen[k] = true
		r.Upsert(k, rng.Uint64(), withDead && rng.Intn(4) == 0)
	}
	if !withDead {
		r.Dead = nil
	}
	return r
}

func clone(r Run) Run {
	return Run{Keys: slices.Clone(r.Keys), Vals: slices.Clone(r.Vals), Dead: slices.Clone(r.Dead)}
}

func equalRuns(a, b Run) bool {
	return slices.Equal(a.Keys, b.Keys) && slices.Equal(a.Vals, b.Vals) && slices.Equal(a.Dead, b.Dead)
}

// oracle applies older, then newer, to a map.
func oracle(newer, older Run) map[uint64]entry {
	m := map[uint64]entry{}
	for _, r := range []Run{older, newer} {
		for i, k := range r.Keys {
			e := entry{dead: r.Dead != nil && r.Dead[i]}
			if r.Vals != nil {
				e.val = r.Vals[i]
			}
			m[k] = e
		}
	}
	return m
}

// checkMerge compares Merge(newer, older, keepDead) with the oracle and
// checks that neither input changed.
func checkMerge(t *testing.T, newer, older Run, keepDead bool) {
	t.Helper()
	n0, o0 := clone(newer), clone(older)
	got := Merge(newer, older, keepDead)
	if !equalRuns(newer, n0) || !equalRuns(older, o0) {
		t.Fatalf("Merge wrote to its inputs")
	}
	want := oracle(newer, older)
	var keys []uint64
	for k, e := range want {
		if keepDead || !e.dead {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	if !slices.Equal(got.Keys, keys) {
		t.Fatalf("keepDead=%v: keys %v, want %v", keepDead, got.Keys, keys)
	}
	if len(got.Vals) != len(keys) {
		t.Fatalf("keepDead=%v: %d values for %d keys", keepDead, len(got.Vals), len(keys))
	}
	if !keepDead && got.Dead != nil {
		t.Fatalf("a merge without tombstones has a Dead slice")
	}
	if keepDead && len(got.Dead) != len(keys) {
		t.Fatalf("%d tombstone flags for %d keys", len(got.Dead), len(keys))
	}
	for i, k := range got.Keys {
		e := entry{val: got.Vals[i], dead: got.Dead != nil && got.Dead[i]}
		if w := want[k]; e != w {
			t.Fatalf("keepDead=%v: key %d = %+v, want %+v", keepDead, k, e, w)
		}
	}
}

func TestMergeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		newer := randomRun(rng, rng.Intn(40), true)
		older := randomRun(rng, rng.Intn(40), trial%2 == 0)
		if trial%5 == 0 {
			older.Vals = nil // a key-only bulk load
		}
		for _, keepDead := range []bool{false, true} {
			checkMerge(t, newer, older, keepDead)
		}
	}
}

func TestMergeEdgeInputs(t *testing.T) {
	full := Run{
		Keys: []uint64{0, 7, ^uint64(0)},
		Vals: []uint64{10, 70, 90},
		Dead: []bool{false, true, false},
	}
	for _, tc := range []struct {
		name         string
		newer, older Run
	}{
		{"both-empty", Run{}, Run{}},
		{"newer-empty", Run{}, full},
		{"older-empty", full, Run{}},
		{"same-keys", full, Run{Keys: []uint64{0, 7, ^uint64(0)}, Vals: []uint64{1, 2, 3}}},
		{"tombstone-over-nothing", Run{Keys: []uint64{5}, Vals: []uint64{0}, Dead: []bool{true}}, full},
		{"ends-only-in-older", Run{Keys: []uint64{7}, Vals: []uint64{1}, Dead: []bool{false}}, full},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, keepDead := range []bool{false, true} {
				checkMerge(t, tc.newer, tc.older, keepDead)
			}
		})
	}
}

func TestLive(t *testing.T) {
	r := Run{Keys: []uint64{0, 4, ^uint64(0)}, Vals: []uint64{1, 2, 3}, Dead: []bool{true, false, false}}
	before := clone(r)
	got := r.Live()
	if !equalRuns(r, before) {
		t.Fatal("Live wrote to its receiver")
	}
	if !equalRuns(got, Run{Keys: []uint64{4, ^uint64(0)}, Vals: []uint64{2, 3}}) {
		t.Fatalf("Live = %+v", got)
	}
	clean := Run{Keys: []uint64{1}, Vals: []uint64{2}, Dead: []bool{false}}
	if got := clean.Live(); &got.Keys[0] != &clean.Keys[0] || got.Dead != nil {
		t.Fatalf("Live of a tombstone-free run copied it or kept its flags: %+v", got)
	}
}

func TestRunUpsertFindLayer(t *testing.T) {
	var r Run
	for _, k := range []uint64{^uint64(0), 5, 0, 9} {
		r.Upsert(k, k+1, false)
	}
	r.Upsert(5, 0, true)
	r.Upsert(9, 99, false)
	if !slices.Equal(r.Keys, []uint64{0, 5, 9, ^uint64(0)}) {
		t.Fatalf("keys %v", r.Keys)
	}
	for _, tc := range []struct {
		key         uint64
		val         uint64
		live, found bool
	}{{0, 1, true, true}, {5, 0, false, true}, {9, 99, true, true}, {^uint64(0), 0, true, true}, {6, 0, false, false}} {
		if v, live, ok := r.Find(tc.key); v != tc.val || live != tc.live || ok != tc.found {
			t.Fatalf("Find(%d) = %d,%v,%v want %d,%v,%v", tc.key, v, live, ok, tc.val, tc.live, tc.found)
		}
	}
	if ls := r.AppendLayer(nil, 6); len(ls) != 1 || ls[0].Pos != 2 {
		t.Fatalf("AppendLayer(6) = %+v", ls)
	}
	var empty Run
	if ls := empty.AppendLayer(nil, 0); len(ls) != 0 {
		t.Fatalf("empty run appended a layer")
	}
}
