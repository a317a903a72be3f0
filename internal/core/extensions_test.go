package core

import (
	"math/rand"
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/indextest"
	"learnedpieces/internal/pla"
)

// zipfWeights builds per-leaf access weights with a few very hot leaves.
func zipfWeights(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.2, 1, uint64(n-1))
	w := make([]float64, n)
	for i := 0; i < n*50; i++ {
		w[z.Uint64()]++
	}
	for i := range w {
		w[i]++ // every leaf is reachable
	}
	return w
}

func TestHotATSLocateCorrect(t *testing.T) {
	firsts := dataset.Generate(dataset.OSMLike, 20000, 31)
	s := NewHotATS(16, 64)
	s.SetWeights(zipfWeights(len(firsts), 32))
	s.Build(firsts)
	for i, f := range firsts {
		if got := s.Locate(f); got != i {
			t.Fatalf("Locate(first[%d]) = %d", i, got)
		}
	}
	for i := 0; i+1 < len(firsts); i += 57 {
		mid := firsts[i] + (firsts[i+1]-firsts[i])/2
		if mid == firsts[i] {
			continue
		}
		if got := s.Locate(mid); got != i {
			t.Fatalf("Locate(mid %d) = %d, want %d", mid, got, i)
		}
	}
	if got := s.Locate(0); got != 0 {
		t.Fatalf("Locate(0) = %d", got)
	}
	if got := s.Locate(^uint64(0)); got != len(firsts)-1 {
		t.Fatalf("Locate(max) = %d", got)
	}
}

// TestHotATSShortensHotPaths pins the §V-B1 claim: with skewed access
// weights, the weighted depth of the hot-aware tree is below the plain
// ATS's weighted depth over the same leaves.
func TestHotATSShortensHotPaths(t *testing.T) {
	firsts := dataset.Generate(dataset.YCSBNormal, 50000, 33)
	w := zipfWeights(len(firsts), 34)

	hot := NewHotATS(16, 64)
	hot.SetWeights(w)
	hot.Build(firsts)

	plain := NewHotATS(16, 64) // same measurement machinery, no heat
	plain.SetWeights(w)
	plain.ats.Build(firsts) // bypass weighting: plain ATS construction

	hd, pd := hot.WeightedDepth(), plain.WeightedDepth()
	if hd >= pd {
		t.Fatalf("hot-aware weighted depth %.3f not below plain %.3f", hd, pd)
	}
}

func TestHotATSWithoutWeightsMatchesATS(t *testing.T) {
	firsts := dataset.Generate(dataset.YCSBUniform, 5000, 35)
	hot := NewHotATS(16, 64)
	hot.Build(firsts)
	plain := NewATS(16, 64)
	plain.Build(firsts)
	for i := 0; i < len(firsts); i += 11 {
		if hot.Locate(firsts[i]) != plain.Locate(firsts[i]) {
			t.Fatalf("divergence at %d", i)
		}
	}
	// Composed over each, the two indexes differ in name only.
	hotIx := Compose(LSAGap{SegLen: 64}, NewHotATS(16, 64), GapInsert{}, ExpandOrSplit{})
	plainIx := Compose(LSAGap{SegLen: 64}, NewATS(16, 64), GapInsert{}, ExpandOrSplit{})
	for _, c := range []*Composed{hotIx, plainIx} {
		if err := c.BulkLoad(firsts, firsts); err != nil {
			t.Fatal(err)
		}
	}
	if got := hotIx.Name(); got != "hot-ats+lsa-gap+alex-gap+expand-split" {
		t.Fatalf("Name() = %q", got)
	}
	if hotIx.AvgDepth() != plainIx.AvgDepth() || hotIx.AvgDepth() < 1 {
		t.Fatalf("depth %.3f over hot-ats, %.3f over ats", hotIx.AvgDepth(), plainIx.AvgDepth())
	}
	if hotIx.Sizes() != plainIx.Sizes() {
		t.Fatalf("sizes %+v over hot-ats, %+v over ats", hotIx.Sizes(), plainIx.Sizes())
	}
}

func TestAppendInsertConformance(t *testing.T) {
	indextest.Run(t, "append-hybrid", func() index.Index {
		return Compose(OptPLA{Eps: 16}, NewBTreeTop(), AppendInsert{BufSize: 64}, RetrainNode{})
	})
}

// TestAppendInsertSequentialEfficiency pins the §V-B2 claim: on a purely
// sequential stream the hybrid strategy retrains far less than the
// buffer strategy (appends bypass the buffer entirely until the tail cap).
func TestAppendInsertSequentialEfficiency(t *testing.T) {
	seq := dataset.Generate(dataset.Sequential, 30000, 0)
	load, inserts := seq[:1000], seq[1000:]

	app := Compose(OptPLA{Eps: 16}, NewBTreeTop(), AppendInsert{BufSize: 64}, RetrainNode{})
	buf := Compose(OptPLA{Eps: 16}, NewBTreeTop(), BufferInsert{Size: 64}, RetrainNode{})
	for _, c := range []*Composed{app, buf} {
		if err := c.BulkLoad(load, load); err != nil {
			t.Fatal(err)
		}
		for _, k := range inserts {
			if err := c.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		}
		if c.Len() != len(seq) {
			t.Fatalf("%s: Len = %d, want %d", c.Name(), c.Len(), len(seq))
		}
		for i := 0; i < len(seq); i += 37 {
			if v, ok := c.Get(seq[i]); !ok || v != seq[i] {
				t.Fatalf("%s: get(%d) = %d,%v", c.Name(), seq[i], v, ok)
			}
		}
	}
	if got := app.Name(); got != "btree+opt-pla+append-hybrid+retrain-node" {
		t.Fatalf("Name() = %q", got)
	}
	ar, _ := app.RetrainStats()
	br, _ := buf.RetrainStats()
	if ar*4 > br {
		t.Fatalf("append-hybrid retrained %d times, buffer %d: expected >=4x fewer", ar, br)
	}
}

// TestAppendInsertMixedStream verifies the fallback path: interleaved
// random keys go through the buffer and everything stays consistent.
func TestAppendInsertMixedStream(t *testing.T) {
	c := Compose(LSA{SegLen: 128}, pla.NewLRS(8), AppendInsert{BufSize: 32, TailCap: 512}, RetrainNode{})
	rng := rand.New(rand.NewSource(36))
	ref := make(map[uint64]uint64)
	next := uint64(1_000_000)
	for i := 0; i < 20000; i++ {
		var k uint64
		if rng.Intn(2) == 0 {
			next += uint64(rng.Intn(100) + 1)
			k = next // sequential tail
		} else {
			k = uint64(rng.Intn(900000) + 1) // random low key
		}
		if err := c.Insert(k, k^5); err != nil {
			t.Fatal(err)
		}
		ref[k] = k ^ 5
	}
	if c.Len() != len(ref) {
		t.Fatalf("Len = %d, ref = %d", c.Len(), len(ref))
	}
	for k, v := range ref {
		if got, ok := c.Get(k); !ok || got != v {
			t.Fatalf("get(%d) = %d,%v want %d", k, got, ok, v)
		}
	}
}
