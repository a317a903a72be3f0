package pgm

import (
	"slices"
	"sort"
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/indextest"
	"learnedpieces/internal/retrain"
	"learnedpieces/internal/search"
)

func TestConformance(t *testing.T) {
	indextest.Run(t, "pgm", func() index.Index {
		return New(Config{Eps: 16, EpsInternal: 4, BaseSize: 64})
	})
}

// TestStaticRecursiveLevels checks both halves of the descent against
// a floor oracle: the internal levels send every query — each segment's
// first key, its neighbours, the midpoint to the next, and the ends of
// the key space — to the level-0 segment whose first key is its floor
// (pla's LRS tests check each internal level on its own), and level 0
// finds every key at its position.
func TestStaticRecursiveLevels(t *testing.T) {
	keys := dataset.Generate(dataset.OSMLike, 100000, 3)
	s := NewStatic(keys, keys, 32, 8)
	if s.Levels() < 2 {
		t.Fatalf("expected recursive levels, got %d", s.Levels())
	}
	queries := []uint64{0, 1, ^uint64(0) - 1, ^uint64(0)}
	for i, f := range s.firsts {
		queries = append(queries, f, f-1, f+1)
		if i+1 < len(s.firsts) {
			queries = append(queries, f+(s.firsts[i+1]-f)/2)
		}
	}
	for _, q := range queries {
		want := max(sort.Search(len(s.firsts), func(i int) bool { return s.firsts[i] > q })-1, 0)
		if got := s.upper.Locate(q); got != want {
			t.Fatalf("internal levels route %d to segment %d, want %d", q, got, want)
		}
	}
	for i, k := range keys {
		pos, ok := s.find(k)
		if !ok || pos != i {
			t.Fatalf("find(%d) = %d,%v want %d", k, pos, ok, i)
		}
	}
}

// TestLowerBoundBelowFirstKey: a range that opens below a run's first
// key is predicted to the run's start at every level, so it costs one
// window search per level and no whole-array fallback.
func TestLowerBoundBelowFirstKey(t *testing.T) {
	keys := dataset.Generate(dataset.OSMLike, 200_000, 3)
	s := NewStatic(keys, keys, 32, 8)
	search.EnableStats(true)
	defer search.EnableStats(false)
	search.ResetStats()
	const starts = 1000
	for i := uint64(0); i < starts; i++ {
		if pos := s.lowerBound(keys[0] / starts * i); pos != 0 {
			t.Fatalf("lowerBound below the first key = %d, want 0", pos)
		}
	}
	var searches int64
	for _, k := range search.StatsSnapshot() {
		searches += k.Searches
	}
	if want := int64(starts * s.Levels()); searches != want {
		t.Fatalf("%d searches for %d starts over %d levels, want %d", searches, starts, s.Levels(), want)
	}
}

func TestLogarithmicMethodRunSizes(t *testing.T) {
	ix := New(Config{Eps: 16, EpsInternal: 4, BaseSize: 32})
	keys := dataset.Generate(dataset.YCSBUniform, 5000, 5)
	for _, k := range dataset.Shuffled(keys, 6) {
		if err := ix.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	// Invariant: run i holds at most BaseSize<<i keys.
	for i, r := range ix.buf.Base {
		if r == nil {
			continue
		}
		if len(r.keys) > 32<<uint(i) {
			t.Fatalf("run %d has %d keys, cap %d", i, len(r.keys), 32<<uint(i))
		}
	}
	if ix.Len() != len(keys) {
		t.Fatalf("Len = %d", ix.Len())
	}
	// One retrain (flush+merge) per ~BaseSize inserts, not per insert —
	// the buffer absorbs the rest (paper §IV-E: "once for every ~500").
	count, _ := ix.RetrainStats()
	want := int64(len(keys) / 32)
	if count < want/4 || count > want*2 {
		t.Fatalf("retrains = %d, want about %d", count, want)
	}
}

// TestRangeOpenAllocs: a cursor open builds its layers in the pooled
// cursor, so an open plus a pull allocates nothing however many runs the
// index holds. A slice made per open for a variable run count escapes to
// the heap.
func TestRangeOpenAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	ix := New(Config{Eps: 16, EpsInternal: 4, BaseSize: 32})
	runs := func() (n int) {
		for _, r := range ix.buf.Base {
			if r != nil {
				n++
			}
		}
		return n
	}
	keys := dataset.Shuffled(dataset.Generate(dataset.YCSBUniform, 5000, 7), 8)
	i := 0
	for ; runs() < 4 || len(ix.buf.Live.Keys) == 0; i++ {
		if err := ix.Insert(keys[i], keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	start := slices.Min(keys[:i])
	cur := ix.Range(start)
	if l := len(cur.(*index.MergeCursor).Layers); l < 5 {
		t.Fatalf("a cursor over %d runs and the live buffer merges %d layers", runs(), l)
	}
	cur.Close()
	ks, vs := make([]uint64, 50), make([]uint64, 50)
	if a := testing.AllocsPerRun(100, func() {
		cur := ix.Range(start)
		if cur.Next(ks, vs) == 0 {
			t.Fatal("empty pull")
		}
		cur.Close()
	}); a != 0 {
		t.Fatalf("a cursor open and pull over %d runs allocates %v times, want 0", runs(), a)
	}
}

func TestNewestRunShadowsOldest(t *testing.T) {
	ix := New(Config{BaseSize: 4})
	for i := 0; i < 100; i++ {
		ix.Insert(42, uint64(i))
	}
	if v, ok := ix.Get(42); !ok || v != 99 {
		t.Fatalf("get(42) = %d,%v want 99", v, ok)
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d after 100 upserts of one key", ix.Len())
	}
}

func TestTombstoneAcrossMerges(t *testing.T) {
	ix := New(Config{BaseSize: 8})
	keys := dataset.Generate(dataset.Sequential, 200, 0)
	for _, k := range keys {
		ix.Insert(k, k)
	}
	for _, k := range keys[:100] {
		if !ix.Delete(k) {
			t.Fatalf("delete(%d) failed", k)
		}
	}
	// Push more inserts to force merges over the tombstones.
	for i := 1000; i < 1200; i++ {
		ix.Insert(uint64(i), uint64(i))
	}
	for _, k := range keys[:100] {
		if _, ok := ix.Get(k); ok {
			t.Fatalf("deleted key %d resurfaced", k)
		}
	}
	for _, k := range keys[100:] {
		if _, ok := ix.Get(k); !ok {
			t.Fatalf("live key %d lost", k)
		}
	}
}

// TestBackgroundFlushLeavesFrozenBufferIntact: a flush into an empty
// index merges nothing, so the tombstones it drops are the frozen
// buffer's own, and lookups keep reading that buffer until the result
// installs: a scan in between must still see each key once.
func TestBackgroundFlushLeavesFrozenBufferIntact(t *testing.T) {
	pool := retrain.NewPool(1, 0)
	defer pool.Close()
	ix := New(Config{BaseSize: 4})
	ix.SetRetrainPool(pool)
	for _, k := range []uint64{1, 2, 3} {
		ix.Insert(k, k*10)
	}
	ix.Delete(2)
	ix.Insert(4, 40) // the buffer is full: frozen and flushed on the pool
	pool.Drain()     // the flush has run; nothing has installed it yet
	var got []uint64
	index.Scan(ix, 0, 0, func(k, v uint64) bool {
		if v != k*10 {
			t.Errorf("key %d carries %d", k, v)
		}
		got = append(got, k)
		return true
	})
	if !slices.Equal(got, []uint64{1, 3, 4}) {
		t.Fatalf("scan before the install = %v, want [1 3 4]", got)
	}
	if _, ok := ix.Get(2); ok {
		t.Fatal("deleted key 2 readable before the install")
	}
}

// TestDrainConverges: writes that outran a busy pool leave the buffer far
// past BaseSize, and DrainRetrains flushes until it is below again.
func TestDrainConverges(t *testing.T) {
	ix := New(Config{BaseSize: 256})
	indextest.RunDrainConverges(t, ix, 256, func() int { return len(ix.buf.Live.Keys) })
}

func BenchmarkStaticFind(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, 1_000_000, 1)
	s := NewStatic(keys, keys, 32, 8)
	probes := dataset.Shuffled(keys, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.find(probes[i%len(probes)])
	}
}

var sink uint64

// BenchmarkGetAfterInserts: Gets of present keys after 290k upserts on a
// 500k-key load, so most keys live in the oldest run under the newer,
// filtered ones. A Get must allocate nothing.
func BenchmarkGetAfterInserts(b *testing.B) {
	load, inserts := dataset.Split(dataset.Generate(dataset.OSMLike, 790_000, 1), 290_000)
	ix := New(DefaultConfig())
	if err := ix.BulkLoad(load, load); err != nil {
		b.Fatal(err)
	}
	for _, k := range dataset.Shuffled(inserts, 2) {
		ix.Insert(k, k)
	}
	probes := dataset.Shuffled(append(load, inserts...), 3)
	if a := testing.AllocsPerRun(100, func() { ix.Get(probes[0]) }); a != 0 {
		b.Fatalf("a Get allocates %v times", a)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := ix.Get(probes[i%len(probes)])
		sink += v
	}
}
