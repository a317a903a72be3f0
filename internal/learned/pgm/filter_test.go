package pgm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"learnedpieces/internal/dataset"
)

// TestRunFilters: a filter never rules out a key it was built from and
// passes few absent ones, and through upsert/delete streams every run
// but the oldest carries one while the index agrees with a map.
func TestRunFilters(t *testing.T) {
	t.Run("no-false-negatives", func(t *testing.T) {
		for _, kind := range dataset.Kinds() {
			for _, n := range []int{1, 2, 7, 64, 1000, 100_000} {
				keys := dataset.Generate(kind, n, 4)
				f := newFilter(keys)
				for _, k := range keys {
					if !f.mayContain(k) {
						t.Fatalf("%v n=%d: filter rules out its own key %d", kind, n, k)
					}
				}
			}
		}
	})

	t.Run("false-positive-rate", func(t *testing.T) {
		// Ten bits a key measure 1.03-1.06% on every dataset kind; a
		// weak hash or a block-selection bias would show well above it.
		const probes, bound = 1_000_000, 0.015
		keys := dataset.Generate(dataset.OSMLike, 100_000, 5)
		present := make(map[uint64]bool, len(keys))
		for _, k := range keys {
			present[k] = true
		}
		f := newFilter(keys)
		rng := rand.New(rand.NewSource(6))
		fp := 0
		for n := 0; n < probes; {
			k := rng.Uint64()
			if present[k] {
				continue
			}
			n++
			if f.mayContain(k) {
				fp++
			}
		}
		rate := float64(fp) / probes
		if rate > bound {
			t.Fatalf("false-positive rate %.4f over %d absent keys, bound %.3f", rate, probes, bound)
		}
		t.Logf("false-positive rate %.4f over %d absent keys", rate, probes)
	})

	streams := []struct {
		base, load, universe, ops int
	}{
		{base: 2, universe: 500, ops: 1500},
		{base: 8, universe: 600, ops: 5000},
		{base: 64, universe: 2000, ops: 12000},
		{base: 8, load: 1500, universe: 1500, ops: 3000},
	}
	for _, st := range streams {
		t.Run(fmt.Sprintf("stream/base=%d/load=%d", st.base, st.load), func(t *testing.T) {
			runFilterStream(t, st.base, st.load, st.universe, st.ops)
		})
	}
}

// runFilterStream bulk-loads load keys into a pgm of the given BaseSize,
// then applies ops seeded upserts (four in five) and deletes over keys
// 2, 4, ..., 2*universe, with 0 and 2⁶⁴−1 among them now and then. After
// every flush it checks the runs' filters and the index against a map,
// on every even key, every odd key between them, 0 and 2⁶⁴−1. A
// bulk-loaded run must be merged away before the stream ends.
func runFilterStream(t *testing.T, base, load, universe, ops int) {
	ix := New(Config{Eps: 4, EpsInternal: 2, BaseSize: base})
	oracle := make(map[uint64]uint64)
	if load > 0 {
		keys := make([]uint64, load)
		for i := range keys {
			keys[i] = uint64(2 * (i + 1))
			oracle[keys[i]] = keys[i]
		}
		if err := ix.BulkLoad(keys, keys); err != nil {
			t.Fatal(err)
		}
	}
	loaded := slices.Clone(ix.buf.Base)
	probes := []uint64{0, ^uint64(0)}
	for k := uint64(1); k <= uint64(2*universe+1); k++ {
		probes = append(probes, k)
	}
	rng := rand.New(rand.NewSource(int64(base*7919 + load)))
	flushes, _ := ix.RetrainStats()
	for op := 0; op < ops; op++ {
		var k uint64
		switch r := rng.Intn(400); {
		case r == 0:
			k = 0
		case r == 1:
			k = ^uint64(0)
		default:
			k = uint64(2 * (rng.Intn(universe) + 1))
		}
		_, had := oracle[k]
		var was bool
		if rng.Intn(5) == 0 {
			was = ix.Delete(k)
			delete(oracle, k)
		} else {
			v := rng.Uint64()
			was, _ = ix.InsertReplace(k, v)
			oracle[k] = v
		}
		if was != had {
			t.Fatalf("op %d on key %d reported live=%v, map says %v", op, k, was, had)
		}
		if n, _ := ix.RetrainStats(); n != flushes {
			flushes = n
			checkRunFilters(t, ix, op)
			checkAgainstMap(t, ix, oracle, probes, op)
		}
	}
	if flushes < int64(ops/(4*base)) {
		t.Fatalf("only %d flushes in %d ops at BaseSize %d", flushes, ops, base)
	}
	for _, r := range loaded {
		if r != nil && slices.Contains(ix.buf.Base, r) {
			t.Fatal("no flush merged the bulk-loaded run")
		}
	}
}

// checkRunFilters: the highest-level run has no filter, every other run
// has one, and no filter rules out a key of its run.
func checkRunFilters(t *testing.T, ix *Index, op int) {
	t.Helper()
	runs := ix.buf.Base
	oldest := len(runs) - 1
	for oldest >= 0 && runs[oldest] == nil {
		oldest--
	}
	for i, r := range runs {
		switch {
		case r == nil:
		case i == oldest && r.filter != nil:
			t.Fatalf("op %d: oldest run %d carries a filter", op, i)
		case i != oldest && r.filter == nil:
			t.Fatalf("op %d: run %d below the oldest (%d) has no filter", op, i, oldest)
		case r.filter != nil:
			for _, k := range r.keys {
				if !r.filter.mayContain(k) {
					t.Fatalf("op %d: run %d's filter rules out its key %d", op, i, k)
				}
			}
		}
	}
}

// checkAgainstMap compares Len, Get and GetBatch (in chunks that do not
// align with its lanes) with the map on every probe.
func checkAgainstMap(t *testing.T, ix *Index, oracle map[uint64]uint64, probes []uint64, op int) {
	t.Helper()
	if ix.Len() != len(oracle) {
		t.Fatalf("op %d: Len = %d, map holds %d", op, ix.Len(), len(oracle))
	}
	vals := make([]uint64, len(probes))
	found := make([]bool, len(probes))
	for off := 0; off < len(probes); off += 37 {
		end := min(off+37, len(probes))
		ix.GetBatch(probes[off:end], vals[off:end], found[off:end])
	}
	for i, k := range probes {
		want, ok := oracle[k]
		if v, got := ix.Get(k); got != ok || (ok && v != want) {
			t.Fatalf("op %d: Get(%d) = %d,%v, map has %d,%v", op, k, v, got, want, ok)
		}
		if found[i] != ok || (ok && vals[i] != want) {
			t.Fatalf("op %d: GetBatch(%d) = %d,%v, map has %d,%v", op, k, vals[i], found[i], want, ok)
		}
	}
}
