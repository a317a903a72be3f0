package core

import (
	"fmt"
	"sort"
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/indextest"
	"learnedpieces/internal/pla"
)

// TestComposedConformance runs the full conformance suite over every
// combination of the four dimensions — the paper's orthogonality claim
// (§IV: "they can be combined to form brand new indexes") as a test.
func TestComposedConformance(t *testing.T) {
	approxes := []Approximator{LSA{SegLen: 128}, OptPLA{Eps: 16}, Greedy{Eps: 16}, LSAGap{SegLen: 128}}
	strategies := []InsertStrategy{Inplace{Reserve: 64}, BufferInsert{Size: 64}, GapInsert{}}
	policies := []RetrainPolicy{RetrainNode{}, ExpandOrSplit{MaxLeafKeys: 512}}
	structures := []func() Structure{
		func() Structure { return NewBTreeTop() },
		func() Structure { return pla.NewLRS(8) },
		func() Structure { return pla.NewRMI(0) },
		func() Structure { return NewATS(16, 64) },
	}
	for ai, a := range approxes {
		for si, newS := range structures {
			for sti, st := range strategies {
				for pi, pol := range policies {
					a, st, pol := a, st, pol
					newS := newS
					name := fmt.Sprintf("%s-%s-%s-%s", a.Name(), newS().Name(), st.Name(), pol.Name())
					// Run every stream on a diagonal subset; smoke the rest
					// with bulk-then-insert.
					var only []string
					if (ai+si+sti+pi)%3 != 0 {
						only = []string{"bulk-then-insert"}
					}
					t.Run(name, func(t *testing.T) {
						t.Parallel() // the cells share nothing
						indextest.Run(t, name, func() index.Index { return Compose(a, newS(), st, pol) }, only...)
					})
				}
			}
		}
	}
}

// TestStructureLocateFloor checks every structure's Locate against a
// floor oracle over three key distributions, tiny domains and the ends
// of the key space: each first key, its neighbours, the midpoint to the
// next first, and keys 0 and 2^64-1.
func TestStructureLocateFloor(t *testing.T) {
	const top = ^uint64(0)
	domains := []struct {
		name   string
		firsts []uint64
	}{
		{"ycsb", dataset.Generate(dataset.YCSBUniform, 5000, 17)},
		{"osm", dataset.Generate(dataset.OSMLike, 5000, 17)},
		{"face", dataset.Generate(dataset.FACELike, 5000, 17)},
		{"one", []uint64{42}},
		{"one-zero", []uint64{0}},
		{"one-max", []uint64{top}},
		{"two", []uint64{42, 43}},
		{"two-ends", []uint64{0, top}},
		{"ends+osm", append(append([]uint64{0}, dataset.Generate(dataset.OSMLike, 3000, 5)...), top)},
		{"ends+face", append(append([]uint64{0}, dataset.Generate(dataset.FACELike, 3000, 5)...), top)},
	}
	for _, s := range Structures() {
		for _, d := range domains {
			firsts := d.firsts
			t.Run(s.Name()+"/"+d.name, func(t *testing.T) {
				s.Build(firsts)
				queries := []uint64{0, 1, top - 1, top}
				for i, f := range firsts {
					queries = append(queries, f, f-1, f+1)
					if i+1 < len(firsts) {
						queries = append(queries, f+(firsts[i+1]-f)/2)
					}
				}
				for _, q := range queries {
					want := sort.Search(len(firsts), func(i int) bool { return firsts[i] > q }) - 1
					if want < 0 {
						want = 0
					}
					if got := s.Locate(q); got != want {
						t.Fatalf("Locate(%d) = %d, want %d", q, got, want)
					}
				}
				if len(firsts) > 2 && (s.Depth() <= 0 || s.SizeBytes() <= 0) {
					t.Fatalf("Depth() = %f, SizeBytes() = %d", s.Depth(), s.SizeBytes())
				}
			})
		}
	}
}

// TestApproximatorTradeoffs pins the Fig 17(a/b) qualitative results:
// Opt-PLA needs far fewer leaves than LSA at comparable error, and
// LSA-gap achieves a lower average error than plain LSA at the same
// segment length.
func TestApproximatorTradeoffs(t *testing.T) {
	// LSA-gap beats LSA at equal segment length on the paper's YCSB keys
	// (gaps reshape locally near-linear runs almost perfectly), at short
	// leaves and at the long ones of the §IV-A sweep.
	for _, c := range []struct {
		n, segLen int
		seed      int64
	}{{50000, 256, 19}, {20000, 2048, 42}} {
		ycsb := dataset.Generate(dataset.YCSBNormal, c.n, c.seed)
		lsaY := LeafMetrics(LSA{SegLen: c.segLen}.Build(ycsb, nil))
		gapY := LeafMetrics(LSAGap{SegLen: c.segLen}.Build(ycsb, nil))
		if gapY.AvgErr >= lsaY.AvgErr {
			t.Fatalf("%d keys, %d a leaf: lsa-gap avg err %.2f not below lsa %.2f", c.n, c.segLen, gapY.AvgErr, lsaY.AvgErr)
		}
	}
	// Opt-PLA guarantees a maximum error; Fig 17(b) compares leaf counts
	// at equal (max) error, where LSA can only cap its max error by
	// shrinking segments drastically. Measured over seeds 1, 2, 3 and 19
	// at 64 keys a segment, LSA needs 5.3–5.5× Opt-PLA's leaves on uniform
	// keys, 7–13× on normal, 4.9–5.1× on OSM-like and only 2.4–2.5× on
	// FACE-like keys (EXPERIMENTS.md, Fig 17(b)). Sequential keys are one
	// segment to Opt-PLA and say nothing.
	for _, c := range []struct {
		kind   dataset.Kind
		margin int
	}{{dataset.YCSBUniform, 4}, {dataset.YCSBNormal, 4}, {dataset.OSMLike, 4}, {dataset.FACELike, 2}} {
		keys := dataset.Generate(c.kind, 50000, 19)
		lsa := LeafMetrics(LSA{SegLen: 64}.Build(keys, nil))
		opt := LeafMetrics(OptPLA{Eps: lsa.MaxErr}.Build(keys, nil))
		if opt.MaxErr > lsa.MaxErr+2 {
			t.Fatalf("%v: opt-pla max err %d exceeds its bound %d", c.kind, opt.MaxErr, lsa.MaxErr)
		}
		if opt.Segments*c.margin > lsa.Segments {
			t.Fatalf("%v: opt-pla %d leaves not %d× fewer than lsa %d at max err %d",
				c.kind, opt.Segments, c.margin, lsa.Segments, lsa.MaxErr)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) != 15 {
		t.Fatalf("registry has %d entries", len(reg))
	}
	learned := 0
	for _, e := range reg {
		if e.New == nil {
			t.Fatalf("%s has no constructor", e.Name)
		}
		idx := e.New()
		if idx.Name() == "" {
			t.Fatalf("%s constructor returned unnamed index", e.Name)
		}
		if e.Learned {
			learned++
			if e.Approximation == "-" {
				t.Fatalf("%s: learned index without approximation algorithm", e.Name)
			}
		}
	}
	// Six paper designs (FITing-tree counted twice for inp/buf) plus the
	// LIPP, FINEdex, and delta-rebuild (rmi-delta, rs-delta) extensions.
	if learned != 11 {
		t.Fatalf("learned entries = %d", learned)
	}
	if _, ok := Lookup("alex"); !ok {
		t.Fatal("Lookup(alex) failed")
	}
	if _, ok := Lookup("nonesuch"); ok {
		t.Fatal("Lookup(nonesuch) succeeded")
	}
	// Only XIndex (and the hash and the FINEdex extension) support
	// concurrent writes (Table I).
	for _, e := range reg {
		want := e.Name == "xindex" || e.Name == "cceh" || e.Name == "finedex"
		if got := index.CapsOf(e.New()).ConcurrentWrites; got != want {
			t.Fatalf("%s ConcurrentWrites = %v", e.Name, got)
		}
	}
}

// TestRegistryConcurrentWrites runs the concurrent streams over every
// entry whose caps claim concurrent writes, so a claim is tested without
// anyone listing it.
func TestRegistryConcurrentWrites(t *testing.T) {
	for _, e := range Registry() {
		if index.CapsOf(e.New()).ConcurrentWrites {
			indextest.Run(t, e.Name, e.New, indextest.Concurrent...)
		}
	}
}

func TestGapInsertStrategyKeepsOrder(t *testing.T) {
	keys := dataset.Generate(dataset.YCSBNormal, 512, 29)
	load, ins := dataset.Split(keys, 200)
	leaves := LSAGap{SegLen: 1024}.Build(load, load)
	if len(leaves) != 1 {
		t.Fatalf("%d leaves", len(leaves))
	}
	l := leaves[0]
	st := GapInsert{}
	for _, k := range ins {
		if ok, retrain := st.Insert(l, k, k, false); !ok {
			if !retrain {
				t.Fatal("insert failed without asking for retrain")
			}
			regap(l)
			if ok2, _ := st.Insert(l, k, k, false); !ok2 {
				t.Fatal("insert failed after regap")
			}
		}
	}
	prev := uint64(0)
	n := 0
	for i := range l.Keys {
		if !l.Occ.Has(i) {
			continue
		}
		if n > 0 && l.Keys[i] <= prev {
			t.Fatalf("order broken at slot %d", i)
		}
		prev = l.Keys[i]
		n++
	}
	if n != len(keys) {
		t.Fatalf("leaf holds %d keys, want %d", n, len(keys))
	}
}
