package learnedpieces_test

import (
	"testing"

	"learnedpieces/internal/core"
	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
)

// orderingN is the key count the orderings are pinned at: half of the
// tables' benchN, so the whole test runs in about a second.
const orderingN = 100_000

func loadedEntry(t *testing.T, name string, keys []uint64) index.Index {
	t.Helper()
	e, ok := core.Lookup(name)
	if !ok {
		t.Fatalf("unknown index %s", name)
	}
	idx := e.New()
	if err := idx.BulkLoad(keys, keys); err != nil {
		t.Fatal(err)
	}
	return idx
}

// retrainsAfter bulk-loads a fresh mk() with load, inserts order, and
// returns how many retrains the inserts caused.
func retrainsAfter(t *testing.T, mk func() index.Index, load, order []uint64) int64 {
	t.Helper()
	idx := mk()
	if err := idx.BulkLoad(load, load); err != nil {
		t.Fatal(err)
	}
	for _, k := range order {
		if err := idx.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	n, _, ok := index.RetrainStatsOf(idx)
	if !ok {
		t.Fatalf("%s reports no retrain counters", idx.Name())
	}
	return n
}

// TestPaperOrderings pins the orderings the paper reads off Table II,
// Table III and Fig 18, on the exact counters behind those tables
// (depth, structure bytes, retrain counts) rather than on time, so each
// holds on any machine. A change that flips one has changed a finding.
func TestPaperOrderings(t *testing.T) {
	t.Run("Table2/alex-deeper-on-osm", func(t *testing.T) {
		depth := func(kind dataset.Kind) float64 {
			d, _ := index.DepthOf(loadedEntry(t, "alex", dataset.Generate(kind, orderingN, benchSeed)))
			return d
		}
		ycsb, osm := depth(dataset.YCSBNormal), depth(dataset.OSMLike)
		if ycsb >= 1.5 || osm <= ycsb {
			t.Fatalf("alex depth %.3f on YCSB, %.3f on OSM: want near 1 on YCSB and deeper on OSM", ycsb, osm)
		}
	})

	t.Run("Table3/learned-structures-smaller", func(t *testing.T) {
		keys := dataset.Generate(dataset.YCSBNormal, orderingN, benchSeed)
		structure := func(name string) float64 {
			return float64(loadedEntry(t, name, keys).Sizes().Structure) / float64(len(keys))
		}
		smallest := structure("skiplist")
		for _, name := range []string{"art", "cceh"} {
			smallest = min(smallest, structure(name))
		}
		for _, name := range []string{"rmi", "rs", "fiting-inp", "fiting-buf", "pgm", "alex", "xindex"} {
			if got := structure(name); got*5 > smallest {
				t.Errorf("%s structure %.3f B/key, want under a fifth of the traditional indexes' least (%.3f)", name, got, smallest)
			}
		}
	})

	load, inserts := dataset.Split(dataset.Generate(dataset.YCSBNormal, orderingN, benchSeed), orderingN/2)
	order := dataset.Shuffled(inserts, benchSeed+2)

	t.Run("Fig18a/reserve-cuts-retrains", func(t *testing.T) {
		prev := int64(-1)
		for _, reserve := range []int{128, 256, 512, 1024} {
			n := retrainsAfter(t, func() index.Index {
				return core.Compose(core.OptPLA{Eps: 32}, core.NewBTreeTop(), core.Inplace{Reserve: reserve}, core.RetrainNode{})
			}, load, order)
			if prev >= 0 && n >= prev {
				t.Fatalf("in-place reserve %d retrained %d times, no fewer than the smaller reserve's %d", reserve, n, prev)
			}
			prev = n
		}
	})

	t.Run("Fig18b/alex-fiting-pgm", func(t *testing.T) {
		var got []int64
		for _, name := range []string{"alex", "fiting-buf", "pgm"} {
			e, _ := core.Lookup(name)
			got = append(got, retrainsAfter(t, e.New, load, order))
		}
		if !(got[0] < got[1] && got[1] < got[2]) {
			t.Fatalf("retrains alex %d, fiting-buf %d, pgm %d: want alex < fiting-buf < pgm", got[0], got[1], got[2])
		}
	})

	t.Run("Fig18c/buffer-cuts-retrains", func(t *testing.T) {
		prev := int64(-1)
		for _, size := range []int{128, 256, 512, 1024} {
			n := retrainsAfter(t, func() index.Index {
				return core.Compose(core.OptPLA{Eps: 32}, core.NewBTreeTop(), core.BufferInsert{Size: size}, core.RetrainNode{})
			}, load, order)
			if prev >= 0 && n >= prev {
				t.Fatalf("buffer %d retrained %d times, no fewer than the smaller buffer's %d", size, n, prev)
			}
			prev = n
		}
	})
}
