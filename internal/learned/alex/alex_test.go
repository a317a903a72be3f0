package alex

import (
	"runtime"
	"sync"
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/indextest"
	"learnedpieces/internal/pla"
	"learnedpieces/internal/retrain"
)

func TestConformance(t *testing.T) {
	indextest.Run(t, "alex", func() index.Index {
		return New(Config{MaxLeafKeys: 128})
	})
}

func TestAsymmetricDepth(t *testing.T) {
	// YCSB-like keys: ALEX's depth should be near 1 (Table II: 1.03),
	// OSM-like should be deeper (Table II: 1.89).
	build := func(kind dataset.Kind) *Index {
		ix := New(Config{MaxLeafKeys: 512})
		keys := dataset.Generate(kind, 200000, 11)
		if err := ix.BulkLoad(keys, keys); err != nil {
			t.Fatal(err)
		}
		return ix
	}
	y := build(dataset.YCSBNormal).AvgDepth()
	o := build(dataset.OSMLike).AvgDepth()
	if y < 1 {
		t.Fatalf("YCSB depth %f < 1", y)
	}
	if o < y {
		t.Fatalf("OSM depth %f not deeper than YCSB %f", o, y)
	}
}

func TestHeavyInsertGrowth(t *testing.T) {
	ix := New(Config{MaxLeafKeys: 256})
	keys := dataset.Generate(dataset.YCSBUniform, 30000, 13)
	for _, k := range dataset.Shuffled(keys, 14) {
		if err := ix.Insert(k, k^7); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(keys))
	}
	exp, spl := ix.ExpandSplitCounts()
	if exp == 0 || spl == 0 {
		t.Fatalf("expected both expansions and splits, got %d/%d", exp, spl)
	}
	for _, k := range keys {
		if v, ok := ix.Get(k); !ok || v != k^7 {
			t.Fatalf("get(%d) = %d,%v", k, v, ok)
		}
	}
	// Chain covers everything in order.
	prev := uint64(0)
	n := 0
	index.Scan(ix, 0, 0, func(k, v uint64) bool {
		if n > 0 && k <= prev {
			t.Fatalf("scan out of order at %d", k)
		}
		prev = k
		n++
		return true
	})
	if n != len(keys) {
		t.Fatalf("scan visited %d, want %d", n, len(keys))
	}
}

func TestGapInsertLittleMovement(t *testing.T) {
	// After bulk load at density 0.7, most inserts should land in a gap
	// without needing an expansion immediately.
	ix := New(Config{MaxLeafKeys: 1024})
	keys := dataset.Generate(dataset.YCSBNormal, 50000, 15)
	load, ins := dataset.Split(keys, 5000)
	if err := ix.BulkLoad(load, load); err != nil {
		t.Fatal(err)
	}
	r0, _ := ix.RetrainStats()
	for _, k := range ins {
		if err := ix.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	r1, _ := ix.RetrainStats()
	// 5000 inserts into ~30% headroom should retrain far less than once
	// per 100 inserts (the paper reports one retrain per ~200k inserts at
	// full scale).
	if r1-r0 > int64(len(ins)/100) {
		t.Fatalf("too many retrains: %d for %d inserts", r1-r0, len(ins))
	}
}

func TestSequentialAppendPattern(t *testing.T) {
	// Paper §V-B2: sequential inserts always land at the end; make sure
	// correctness holds under this adversarial pattern.
	ix := New(Config{MaxLeafKeys: 128})
	for i := 1; i <= 10000; i++ {
		if err := ix.Insert(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 10000; i++ {
		if v, ok := ix.Get(uint64(i)); !ok || v != uint64(i) {
			t.Fatalf("get(%d) = %d,%v", i, v, ok)
		}
	}
}

// TestRootDataNodeSplit grows an index from empty until the root data
// node must become a tree (the len(path)==0 split branch).
func TestRootDataNodeSplit(t *testing.T) {
	ix := New(Config{MaxLeafKeys: 64})
	keys := dataset.Generate(dataset.YCSBUniform, 2000, 17)
	for _, k := range keys {
		if err := ix.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if _, isData := ix.root.(*dataNode); isData {
		t.Fatal("root never split into a tree")
	}
	// Split nodes hold at most about MaxLeafKeys keys each.
	if n := ix.LeafCount(); n < len(keys)/(2*64) {
		t.Fatalf("%d data nodes for %d keys at 64 a node", n, len(keys))
	}
	for _, k := range keys {
		if _, ok := ix.Get(k); !ok {
			t.Fatalf("key %d lost across root split", k)
		}
	}
}

// TestDownwardSplitDeepens forces a data node that owns a single parent
// slot to split downward, creating the asymmetric depth growth.
func TestDownwardSplitDeepens(t *testing.T) {
	ix := New(Config{MaxLeafKeys: 64, MaxFanout: 4})
	// A hot cluster plus sparse outliers: the cluster concentrates in few
	// parent slots and must deepen.
	var keys []uint64
	for i := uint64(0); i < 3000; i++ {
		keys = append(keys, 1_000_000+i)
	}
	keys = append(keys, 1, 1<<50, 1<<60)
	for _, k := range dataset.Shuffled(dataset.SortedUnique(keys), 18) {
		if err := ix.Insert(k, k^3); err != nil {
			t.Fatal(err)
		}
	}
	if d := ix.AvgDepth(); d < 1.5 {
		t.Fatalf("expected deepened tree, depth %.2f", d)
	}
	for _, k := range keys {
		if v, ok := ix.Get(k); !ok || v != k^3 {
			t.Fatalf("get(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestDeleteThenReinsertIntoGaps(t *testing.T) {
	ix := New(Config{MaxLeafKeys: 256})
	keys := dataset.Generate(dataset.YCSBNormal, 5000, 19)
	if err := ix.BulkLoad(keys, keys); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(keys); i += 2 {
		if !ix.Delete(keys[i]) {
			t.Fatalf("delete(%d)", keys[i])
		}
	}
	for i := 0; i < len(keys); i += 2 {
		if err := ix.Insert(keys[i], keys[i]+1); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != len(keys) {
		t.Fatalf("Len = %d", ix.Len())
	}
	for i, k := range keys {
		want := k
		if i%2 == 0 {
			want = k + 1
		}
		if v, ok := ix.Get(k); !ok || v != want {
			t.Fatalf("get(%d) = %d,%v want %d", k, v, ok, want)
		}
	}
}

// TestInsertWorkPinned is the Put tail counted instead of timed (Fig 13
// and Fig 18(a) in work units): 500 k OSM-like keys bulk-loaded, the 312 k
// held-out keys between them inserted in random order. On clustered data
// model-based placement packs long runs, so the mean shift is tens of
// slots and the worst one most of a node; the counters are exact and
// repeat to the digit, which a p99 on this box does not.
func TestInsertWorkPinned(t *testing.T) {
	keys := dataset.Generate(dataset.OSMLike, 812_000, 7)
	load, ins := dataset.Split(keys, 312_000)
	ix := New(DefaultConfig())
	if err := ix.BulkLoad(load, load); err != nil {
		t.Fatal(err)
	}
	for _, k := range dataset.Shuffled(ins, 8) {
		if existed, err := ix.InsertReplace(k, k); err != nil || existed {
			t.Fatalf("InsertReplace(%d) = %v,%v", k, existed, err)
		}
	}
	got := ix.InsertWork()
	expands, splits := ix.ExpandSplitCounts()
	t.Logf("inserts %d: %.2f slots shifted per insert (max %d), %.2f searched for a gap; %d expands, %d splits",
		got.Inserts, float64(got.Shifted)/float64(got.Inserts), got.MaxShift,
		float64(got.GapSearch)/float64(got.Inserts), expands, splits)
	if runtime.GOARCH != "amd64" {
		// Fused multiply-add rounds the model fit differently, and a slot
		// prediction that moves by one moves the counts.
		t.Skip("pinned on amd64")
	}
	want := pla.InsertWork{Inserts: 312_000, Shifted: 27_070_839, MaxShift: 4505, GapSearch: 92_187_138}
	if got != want || expands != 509 || splits != 17 {
		t.Fatalf("insert work %+v, %d expands, %d splits; want %+v", got, expands, splits, want)
	}
}

// TestDrainConverges: behind a busy pool, dense nodes wait on their
// expands while the writes they take are op-logged; DrainRetrains must
// install and replay until no write waits.
func TestDrainConverges(t *testing.T) {
	ix := New(Config{MaxLeafKeys: 1024})
	indextest.RunDrainConverges(t, ix, 1, ix.aside.Logged)
}

// TestSplitVoidsExpandInFlight: a node whose expand is in flight fills
// and splits on the spot. The split's nodes hold every write, so the
// expand and its logged writes are dropped, and the drain installs
// nothing into the node that left the tree.
func TestSplitVoidsExpandInFlight(t *testing.T) {
	pool := retrain.NewPool(1, 0)
	defer pool.Close()
	gate, started := make(chan struct{}), make(chan struct{})
	pool.Submit("blocker", func() { close(started); <-gate })
	<-started
	var release sync.Once
	defer release.Do(func() { close(gate) }) // a failure must not leave Close waiting on the blocker
	ix := New(Config{MaxLeafKeys: 64})
	ix.SetRetrainPool(pool)
	keys := dataset.Shuffled(dataset.Generate(dataset.YCSBUniform, 200, 21), 22)
	if err := ix.BulkLoad(dataset.SortedUnique(keys[:50]), nil); err != nil {
		t.Fatal(err)
	}
	d := ix.root.(*dataNode)
	n := 50
	for ; !ix.aside.InFlight(d); n++ {
		ix.Insert(keys[n], keys[n])
	}
	for ; ix.root == d; n++ {
		ix.Insert(keys[n], keys[n])
		if ix.root == d && ix.aside.Logged() == 0 {
			t.Fatalf("insert %d: no write logged against the node in flight", n)
		}
	}
	if ix.aside.InFlight(d) || ix.aside.Logged() != 0 {
		t.Fatalf("after the split: old node in flight %v, %d writes logged; want false, 0", ix.aside.InFlight(d), ix.aside.Logged())
	}
	release.Do(func() { close(gate) })
	ix.DrainRetrains()
	if exp, spl := ix.ExpandSplitCounts(); exp != 1 || spl != 1 {
		t.Fatalf("%d expands, %d splits; want the voided expand and the split", exp, spl)
	}
	if ix.Len() != n {
		t.Fatalf("Len = %d, want %d", ix.Len(), n)
	}
	for _, k := range keys[:n] {
		if _, ok := ix.Get(k); !ok {
			t.Fatalf("key %d lost", k)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	ix := New(DefaultConfig())
	keys := dataset.Generate(dataset.YCSBNormal, 1_000_000, 1)
	if err := ix.BulkLoad(keys, keys); err != nil {
		b.Fatal(err)
	}
	probes := dataset.Shuffled(keys, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Get(probes[i%len(probes)])
	}
}

// BenchmarkRangeOpen is a short scan's index share: open a cursor at a
// start drawn uniformly from the loaded keys and pull 50 entries.
func BenchmarkRangeOpen(b *testing.B) {
	ix := New(DefaultConfig())
	keys := dataset.Generate(dataset.OSMLike, 1_000_000, 1)
	if err := ix.BulkLoad(keys, keys); err != nil {
		b.Fatal(err)
	}
	starts := dataset.Shuffled(keys, 2)
	ks, vs := make([]uint64, 50), make([]uint64, 50)
	ix.Range(0).Close() // the pooled cursor exists before the clock starts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := ix.Range(starts[i%len(starts)])
		cur.Next(ks, vs)
		cur.Close()
	}
}

func BenchmarkInsert(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, 2_000_000, 3)
	load, ins := dataset.Split(keys, 1_000_000)
	ix := New(DefaultConfig())
	if err := ix.BulkLoad(load, load); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := ins[i%len(ins)]
		ix.Insert(k, k)
	}
}
