package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/indextest"
	"learnedpieces/internal/retrain"
)

// The FITing-tree presets (registry "fiting-inp" and "fiting-buf") are
// Compose(OptPLA, BTreeTop, Inplace | BufferInsert, RetrainNode); these
// tests pin them to the hand-written FITing-tree they replaced.

func preset(name string) *Composed {
	e, _ := Lookup(name)
	return e.New().(*Composed)
}

// fitingCell is a FITing-tree cell at other parameters than the presets'.
func fitingCell(eps int, ins InsertStrategy) *Composed {
	return Compose(OptPLA{Eps: eps}, NewBTreeTop(), ins, RetrainNode{})
}

func TestConformanceInplace(t *testing.T) {
	indextest.Run(t, "fiting-inp", func() index.Index { return fitingCell(16, Inplace{Reserve: 64}) })
}

func TestConformanceBuffer(t *testing.T) {
	indextest.Run(t, "fiting-buf", func() index.Index { return fitingCell(16, BufferInsert{Size: 64}) })
}

func TestFitingPresets(t *testing.T) {
	for _, name := range []string{"fiting-inp", "fiting-buf"} {
		if got := preset(name).Name(); got != name {
			t.Errorf("preset %s is named %q", name, got)
		}
		indextest.Run(t, name, func() index.Index { return preset(name) })
	}
}

// TestFitingLeavesMatchFITingTree: after a bulk load, each preset's leaves
// carry the (FirstKey, Slope, Intercept, MaxErr) the hand-written
// FITing-tree built on the same keys; the hashes and leaf counts are that
// index's.
func TestFitingLeavesMatchFITingTree(t *testing.T) {
	want := []struct {
		kind   dataset.Kind
		leaves int
		hash   uint64
	}{
		{dataset.YCSBNormal, 42, 0x734e5bdb70c740f4},
		{dataset.OSMLike, 227, 0x8f95fefebdc90327},
		{dataset.FACELike, 574, 0x62d3e4369810dc88},
	}
	for _, w := range want {
		keys := dataset.Generate(w.kind, 100000, 5)
		for _, name := range []string{"fiting-inp", "fiting-buf"} {
			c := preset(name)
			if err := c.BulkLoad(keys, keys); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			n := 0
			for l := c.leaves[0]; l != nil; l = l.next {
				fmt.Fprint(h, l.FirstKey, math.Float64bits(l.Slope), math.Float64bits(l.Intercept), l.MaxErr)
				n++
			}
			if n != w.leaves || h.Sum64() != w.hash {
				t.Errorf("%s on %v: %d leaves hashing to %#x, want %d and %#x", name, w.kind, n, h.Sum64(), w.leaves, w.hash)
			}
		}
	}
}

// TestFitingRetrainCountsPinned: on one seeded insert stream each preset
// ends with the leaf and retrain counts the hand-written FITing-tree had.
func TestFitingRetrainCountsPinned(t *testing.T) {
	for _, tc := range []struct {
		kind           dataset.Kind
		before, leaves int
		retrains       int64
	}{
		{dataset.YCSBNormal, 25, 131, 149},
		{dataset.OSMLike, 150, 254, 105},
	} {
		keys := dataset.Generate(tc.kind, 100000, 1)
		load, ins := dataset.Split(keys, 50000)
		order := dataset.Shuffled(ins, 2)
		for _, name := range []string{"fiting-inp", "fiting-buf"} {
			c := preset(name)
			if err := c.BulkLoad(load, load); err != nil {
				t.Fatal(err)
			}
			before := c.LeafCount()
			for _, k := range order {
				if err := c.Insert(k, k); err != nil {
					t.Fatal(err)
				}
			}
			if n := c.aside.Logged(); n != 0 {
				t.Fatalf("%s: %d writes logged with no rebuild in flight", name, n)
			}
			r, _ := c.RetrainStats()
			if before != tc.before || c.LeafCount() != tc.leaves || r != tc.retrains {
				t.Errorf("%s on %v: leaves %d -> %d after %d retrains, want %d -> %d after %d",
					name, tc.kind, before, c.LeafCount(), r, tc.before, tc.leaves, tc.retrains)
			}
		}
	}
}

// TestInplaceReserveExact: every packed leaf a bulk load builds holds
// exactly the reserve it asked for, whatever size class its run fell in.
func TestInplaceReserveExact(t *testing.T) {
	keys := dataset.Generate(dataset.YCSBNormal, 100000, 3)
	for _, reserve := range []int{128, 1024} {
		c := fitingCell(32, Inplace{Reserve: reserve})
		if err := c.BulkLoad(keys, keys); err != nil {
			t.Fatal(err)
		}
		for _, l := range c.leaves {
			if free := cap(l.Keys) - len(l.Keys); free != reserve || cap(l.Vals) != cap(l.Keys) {
				t.Fatalf("reserve %d: %v has %d free slots (vals cap %d)", reserve, l, free, cap(l.Vals))
			}
		}
	}
}

func TestRetrainSplitsLeaf(t *testing.T) {
	c := fitingCell(8, BufferInsert{Size: 16})
	keys := dataset.Generate(dataset.OSMLike, 4000, 7)
	load, ins := dataset.Split(keys, 1000)
	if err := c.BulkLoad(load, load); err != nil {
		t.Fatal(err)
	}
	before := c.LeafCount()
	for _, k := range ins {
		if err := c.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	count, ns := c.RetrainStats()
	if count == 0 {
		t.Fatal("no retrains after filling buffers")
	}
	if ns <= 0 {
		t.Fatal("retrain time not recorded")
	}
	if c.LeafCount() < before {
		t.Fatalf("leaf count shrank from %d to %d", before, c.LeafCount())
	}
	for _, k := range keys {
		if v, ok := c.Get(k); !ok || v != k {
			t.Fatalf("get(%d) = %d,%v after retrains", k, v, ok)
		}
	}
}

func TestInplaceReserveExhaustion(t *testing.T) {
	// A tiny reserve forces inplace retrains; data must survive.
	c := fitingCell(8, Inplace{Reserve: 4})
	keys := dataset.Generate(dataset.YCSBNormal, 3000, 9)
	load, ins := dataset.Split(keys, 1500)
	if err := c.BulkLoad(load, load); err != nil {
		t.Fatal(err)
	}
	for _, k := range dataset.Shuffled(ins, 10) {
		if err := c.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(keys))
	}
	if count, _ := c.RetrainStats(); count == 0 {
		t.Fatal("expected retrains with reserve=4")
	}
	for _, k := range keys {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("key %d lost", k)
		}
	}
}

// TestRetrainReleasesDisplacedLeaf: a retrain's first replacement takes
// over the displaced leaf's slot in the leaf table, so after many
// retrains — inline, or built on a pool and installed at the drain —
// the table holds exactly the leaves the B+tree reaches, each under its
// own id, and the leaf chain visits them in key order.
func TestRetrainReleasesDisplacedLeaf(t *testing.T) {
	for _, tc := range []struct {
		name string
		ins  InsertStrategy
		pool *retrain.Pool
	}{
		{"inline-inplace", Inplace{Reserve: 64}, nil},
		{"inline-buffer", BufferInsert{Size: 64}, nil},
		{"pool-buffer", BufferInsert{Size: 64}, retrain.NewPool(1, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer tc.pool.Close()
			c := fitingCell(32, tc.ins)
			c.SetRetrainPool(tc.pool)
			keys := make([]uint64, 10000)
			for i := range keys {
				keys[i] = uint64(i) * 1000
			}
			if err := c.BulkLoad(keys, keys); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 30000; i++ {
				k := uint64(rng.Int63n(1e7))
				if err := c.Insert(k, k); err != nil {
					t.Fatal(err)
				}
			}
			c.DrainRetrains()
			if n, _ := c.RetrainStats(); n == 0 {
				t.Fatal("no retrains ran")
			}
			reached := map[uint64]bool{}
			index.Scan(c.structure.(*BTreeTop).t, 0, 0, func(_, id uint64) bool { reached[id] = true; return true })
			if len(reached) != len(c.leaves) {
				t.Fatalf("the B+tree reaches %d ids, the table holds %d leaves", len(reached), len(c.leaves))
			}
			n := 0
			for l := c.leaves[0]; l != nil; l = l.next {
				if !reached[uint64(l.id)] || c.leaves[l.id] != l {
					t.Fatalf("chained leaf %v is not table slot %d", l, l.id)
				}
				if l.next != nil && (l.next.prev != l || l.next.FirstKey <= l.FirstKey) {
					t.Fatalf("chain out of order after %v", l)
				}
				n++
			}
			if n != len(c.leaves) {
				t.Fatalf("chain visits %d leaves, table holds %d", n, len(c.leaves))
			}
		})
	}
}

func TestInsertBelowFirstKey(t *testing.T) {
	c := preset("fiting-buf")
	if err := c.BulkLoad([]uint64{100, 200, 300}, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(5, 50); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Get(5); !ok || v != 50 {
		t.Fatalf("get(5) = %d,%v", v, ok)
	}
	var first uint64
	index.Scan(c, 0, 1, func(k, v uint64) bool { first = k; return true })
	if first != 5 {
		t.Fatalf("scan starts at %d, want 5", first)
	}
}

// TestDrainConverges checks that after an insert-heavy phase,
// DrainRetrains leaves the same bounded structure the inline path
// maintains: no leaf holds a buffer at or past its Size, and no in-place
// leaf carries a search window wider than eps plus the slots it absorbed
// since its last rebuild. A backlogged pool lets leaves run far past
// both bounds mid-flight; the drain loop has to install and replay until
// the excess is retrained away, not merely wait for the queue to empty.
func TestDrainConverges(t *testing.T) {
	const n, eps, reserve = 50000, 32, 64
	keys := dataset.Generate(dataset.YCSBNormal, n, 42)
	var load, inserts []uint64
	for i, k := range keys {
		if i%4 == 0 {
			load = append(load, k)
		} else {
			inserts = append(inserts, k)
		}
	}
	inserts = dataset.Shuffled(inserts, 44)
	for _, ins := range []InsertStrategy{Inplace{Reserve: reserve}, BufferInsert{Size: reserve}} {
		for _, workers := range []int{0, 1, 4} {
			c := fitingCell(eps, ins)
			if workers > 0 {
				pool := retrain.NewPool(workers, 0)
				defer pool.Close()
				c.SetRetrainPool(pool)
			}
			if err := c.BulkLoad(load, load); err != nil {
				t.Fatal(err)
			}
			for _, k := range inserts {
				if err := c.Insert(k, k); err != nil {
					t.Fatal(err)
				}
			}
			c.DrainRetrains()
			for _, l := range c.leaves {
				if len(l.Buf.Keys) >= reserve {
					t.Errorf("%s workers=%d: leaf buffer %d >= Size %d after drain", ins.Name(), workers, len(l.Buf.Keys), reserve)
				}
				if l.MaxErr > eps+reserve {
					t.Errorf("%s workers=%d: leaf MaxErr %d > eps+Reserve %d after drain", ins.Name(), workers, l.MaxErr, eps+reserve)
				}
			}
			if got := c.Len(); got != n {
				t.Fatalf("%s workers=%d: Len=%d want %d", ins.Name(), workers, got, n)
			}
		}
	}
}
