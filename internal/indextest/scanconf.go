package indextest

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
)

// RunScanConformance is the range-scan conformance suite. The cursor
// is the one scan implementation, so every check compares it — pulled
// raw with several buffer sizes, or driven through index.Scan — with
// the sorted live set loadConformance returns: ascending order,
// start-boundary inclusion, exact-limit stop, empty ranges, resume at
// lastKey+1, and a differential open at every key after a delete
// history. The suite is gated on the capability descriptor, so it runs
// against every index and exercises exactly the surface it advertises.
// Pulling with several buffer sizes also exercises, under -race, the
// pooled cursors' reuse across opens.
func RunScanConformance(t *testing.T, name string, f Factory) {
	if !index.CapsOf(f()).Range {
		t.Run(name+"/scan-unsupported", func(t *testing.T) {
			// An honest refusal: nothing to conform to.
			t.Skipf("%s does not advertise Range", name)
		})
		return
	}
	t.Run(name+"/scan-order", func(t *testing.T) { testScanOrder(t, f) })
	t.Run(name+"/scan-limit", func(t *testing.T) { testScanLimit(t, f) })
	t.Run(name+"/scan-empty", func(t *testing.T) { testScanEmpty(t, f) })
	t.Run(name+"/cursor-resume", func(t *testing.T) { testCursorResume(t, f) })
	t.Run(name+"/cursor-open", func(t *testing.T) { testCursorOpen(t, f) })
}

// edgeKeys are the keys where model arithmetic and cursor stepping are
// most likely to slip: both ends of the key space and the float64
// mantissa cliff (2^53 and its neighbour share a float64). They are
// loaded into every conformance index, with a dense cluster at each
// end, and every one is also a scan start position.
var edgeKeys = []uint64{0, 1, 1 << 53, 1<<53 + 1, 1 << 63, ^uint64(0) - 1, ^uint64(0)}

// loadConformance fills an index with a reproducible key set — a bulk
// load, plus a post-load insert and delete phase where the index is
// dynamic — and returns the expected sorted live keys (every key maps to
// itself as value).
func loadConformance(t *testing.T, idx index.Index) []uint64 {
	t.Helper()
	base := dataset.Generate(dataset.YCSBUniform, 4000, 71)
	live := map[uint64]bool{}
	for _, k := range base {
		live[k] = true
	}
	for _, k := range edgeKeys {
		live[k] = true
	}
	for i := uint64(0); i < 32; i++ {
		live[2+i] = true
		live[^uint64(0)-2-i] = true
	}
	mustBulkLoad(t, idx, sortedKeys(live))
	// Dynamic indexes additionally absorb inserts (delta layers, node
	// splits) and deletes, so the ordered walk crosses layer boundaries.
	extra := dataset.Generate(dataset.YCSBNormal, 500, 72)
	if err := idx.Insert(extra[0], extra[0]); err != index.ErrReadOnly {
		if err != nil {
			t.Fatal(err)
		}
		live[extra[0]] = true
		for _, k := range extra[1:] {
			mustInsert(t, idx, k, k)
			live[k] = true
		}
		if del, ok := idx.(index.Deleter); ok && index.CapsOf(idx).Delete {
			for i := 0; i < len(base); i += 17 {
				del.Delete(base[i])
				delete(live, base[i])
			}
		}
	}
	return sortedKeys(live)
}

// mustBulkLoad installs sorted keys (value = key).
func mustBulkLoad(t *testing.T, idx index.Index, keys []uint64) {
	t.Helper()
	if err := idx.BulkLoad(keys, keys); err != nil {
		t.Fatal(err)
	}
}

func sortedKeys(set map[uint64]bool) []uint64 {
	sorted := make([]uint64, 0, len(set))
	for k := range set {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted
}

// suffixFrom returns the part of the sorted oracle with key >= start.
func suffixFrom(want []uint64, start uint64) []uint64 {
	return want[sort.Search(len(want), func(i int) bool { return want[i] >= start }):]
}

// startPositions are the scan starts every check walks from: the edge
// keys, an existing mid key and the gap right after it.
func startPositions(want []uint64) []uint64 {
	mid := want[len(want)/2]
	return append([]uint64{mid, mid + 1}, edgeKeys...)
}

// collectScan drains index.Scan(start, n) over the index's cursor into
// a slice, checking key==value.
func collectScan(t *testing.T, idx index.Index, start uint64, n int) []uint64 {
	t.Helper()
	var got []uint64
	index.Scan(idx.(index.Ranger), start, n, func(k, v uint64) bool {
		if k != v {
			t.Fatalf("scan visited (%d,%d), want key==value", k, v)
		}
		got = append(got, k)
		return true
	})
	return got
}

// mustEqualKeys fails unless got is exactly want.
func mustEqualKeys(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: visited %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: order broken at %d: %d != %d", what, i, got[i], want[i])
		}
	}
}

// collectCursor drains a cursor into a slice using the given pull
// buffer size, checking key==value.
func collectCursor(t *testing.T, cur index.Cursor, buf int) []uint64 {
	t.Helper()
	keys := make([]uint64, buf)
	vals := make([]uint64, buf)
	var got []uint64
	for {
		m := cur.Next(keys, vals)
		if m == 0 {
			return got
		}
		for i := 0; i < m; i++ {
			if keys[i] != vals[i] {
				t.Fatalf("cursor yielded (%d,%d), want key==value", keys[i], vals[i])
			}
			got = append(got, keys[i])
		}
	}
}

func testScanOrder(t *testing.T, f Factory) {
	idx := f()
	want := loadConformance(t, idx)
	r := idx.(index.Ranger)
	for _, buf := range []int{1, 3, 64, 1024} {
		cur := r.Range(0)
		got := collectCursor(t, cur, buf)
		cur.Close()
		mustEqualKeys(t, fmt.Sprintf("cursor from 0, buf %d", buf), got, want)
	}
	// Start boundary: a scan from an existing key includes it, a scan
	// from a gap starts at the successor, at every start position.
	for _, start := range startPositions(want) {
		mustEqualKeys(t, fmt.Sprintf("scan from %d", start), collectScan(t, idx, start, 0), suffixFrom(want, start))
	}
}

func testScanLimit(t *testing.T, f Factory) {
	idx := f()
	want := loadConformance(t, idx)
	for _, start := range startPositions(want) {
		exp := suffixFrom(want, start)
		if len(exp) > 37 {
			exp = exp[:37]
		}
		mustEqualKeys(t, fmt.Sprintf("scan(%d, 37)", start), collectScan(t, idx, start, 37), exp)
	}
	// A limit past the tail stops at exhaustion, not before.
	tail := want[len(want)-5]
	mustEqualKeys(t, "tail scan", collectScan(t, idx, tail, 100), want[len(want)-5:])
	// Early termination by callback return.
	seen := 0
	index.Scan(idx.(index.Ranger), want[len(want)/4], 0, func(k, v uint64) bool {
		seen++
		return seen < 7
	})
	if seen != 7 {
		t.Fatalf("callback-stopped scan visited %d, want 7", seen)
	}
}

func testScanEmpty(t *testing.T, f Factory) {
	// An empty index scans nothing.
	if g := collectScan(t, f(), 0, 0); len(g) != 0 {
		t.Fatalf("empty index scan visited %d entries", len(g))
	}
	// Nor does a scan from past the largest key.
	idx := f()
	mustBulkLoad(t, idx, []uint64{10, 20, 30})
	for _, start := range []uint64{31, ^uint64(0)} {
		if g := collectScan(t, idx, start, 10); len(g) != 0 {
			t.Fatalf("past-the-end scan from %d visited %v", start, g)
		}
	}
}

func testCursorResume(t *testing.T, f Factory) {
	idx := f()
	want := loadConformance(t, idx)
	r := idx.(index.Ranger)
	start := want[len(want)/5]
	oneShot := suffixFrom(want, start)
	// Resume after 1, after a partial buffer, and after several pulls:
	// close the cursor mid-range and reopen at lastKey+1 — the
	// concatenation must equal the one-shot walk. This is exactly the
	// wire protocol's cursor-continuation contract.
	for _, cut := range []int{1, 13, 200} {
		if cut >= len(oneShot) {
			continue
		}
		cur := r.Range(start)
		keys := make([]uint64, cut)
		vals := make([]uint64, cut)
		var got []uint64
		for len(got) < cut {
			m := cur.Next(keys[:cut-len(got)], vals[:cut-len(got)])
			if m == 0 {
				break
			}
			got = append(got, keys[:m]...)
		}
		cur.Close()
		if len(got) != cut {
			t.Fatalf("cut %d: first leg yielded %d entries", cut, len(got))
		}
		last := got[len(got)-1]
		if last == ^uint64(0) {
			continue
		}
		cur = r.Range(last + 1)
		got = append(got, collectCursor(t, cur, 64)...)
		cur.Close()
		mustEqualKeys(t, fmt.Sprintf("cut %d: resumed walk", cut), got, oneShot)
	}
}

// testCursorOpen is the differential open check. Opening is where a
// node-based cursor does more than walk: it seeks inside the node the
// descent found, and the seek's corner cases are shapes only a delete
// history leaves. On top of loadConformance's history, runs of
// consecutive keys are deleted, long enough that whatever the node size
// some node loses its head (its first live key now sits behind a run of
// gaps), some node its tail (a seek past its last live key must move on
// to the next node) and the nodes in between every key (emptied nodes in
// the middle of the chain, one of which gets a single key back); the
// second pass also deletes both ends of the key space, 0 and 2^64-1
// included. Random deletes and re-inserts follow. Then a cursor is opened
// at every key that was ever present, live or deleted, and at both its
// neighbours, and what it yields first is compared with the sorted
// oracle. Indexes that cannot delete or insert get the same opens over
// what they can hold.
func testCursorOpen(t *testing.T, f Factory) {
	for _, ends := range []bool{false, true} {
		idx := f()
		caps := index.CapsOf(idx)
		ever := loadConformance(t, idx)
		n := len(ever)
		live := make(map[uint64]bool, n)
		for _, k := range ever {
			live[k] = true
		}
		if del, ok := idx.(index.Deleter); ok && caps.Delete {
			runs := [][2]int{{n / 8, n/8 + 900}, {n / 2, n/2 + 300}, {3 * n / 4, 3*n/4 + 40}}
			if ends {
				runs = append(runs, [2]int{0, 200}, [2]int{n - 200, n})
			}
			for _, r := range runs {
				for _, k := range ever[r[0]:r[1]] {
					if !del.Delete(k) {
						t.Fatalf("delete(%d) = false", k)
					}
					delete(live, k)
				}
			}
			back := ever[n/8+450]
			mustInsert(t, idx, back, back)
			live[back] = true
			rng := rand.New(rand.NewSource(91))
			for i := 0; i < 600; i++ {
				k := ever[rng.Intn(n)]
				if live[k] {
					del.Delete(k)
					delete(live, k)
				} else {
					mustInsert(t, idx, k, k)
					live[k] = true
				}
			}
		}
		want := sortedKeys(live)
		r := idx.(index.Ranger)
		keys, vals := make([]uint64, 4), make([]uint64, 4)
		// check drains the first entries of a cursor opened at start.
		check := func(start uint64) {
			exp := suffixFrom(want, start)
			cur := r.Range(start)
			m := cur.Next(keys, vals)
			cur.Close()
			if m != min(len(exp), len(keys)) {
				t.Fatalf("ends=%v: cursor opened at %d yielded %d entries, want %d", ends, start, m, min(len(exp), len(keys)))
			}
			for i := 0; i < m; i++ {
				if keys[i] != exp[i] || vals[i] != keys[i] {
					t.Fatalf("ends=%v: cursor opened at %d: entry %d = (%d,%d), want key %d", ends, start, i, keys[i], vals[i], exp[i])
				}
			}
		}
		for _, k := range ever {
			if k > 0 {
				check(k - 1)
			}
			check(k)
			if k < ^uint64(0) {
				check(k + 1)
			}
		}
	}
}
