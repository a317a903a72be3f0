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
					// Run the heavyweight random-model suite on a diagonal
					// subset; smoke the rest with insert-get.
					full := (ai+si+sti+pi)%3 == 0
					t.Run(name, func(t *testing.T) {
						f := func() index.Index { return Compose(a, newS(), st, pol) }
						if full {
							indextest.RunAll(t, name, f)
						} else {
							idx := f()
							keys := dataset.Generate(dataset.YCSBNormal, 3000, 31)
							load, ins := dataset.Split(keys, 1000)
							if err := idx.BulkLoad(load, load); err != nil {
								t.Fatal(err)
							}
							for _, k := range dataset.Shuffled(ins, 32) {
								if err := idx.Insert(k, k); err != nil {
									t.Fatal(err)
								}
							}
							if idx.Len() != len(keys) {
								t.Fatalf("Len = %d, want %d", idx.Len(), len(keys))
							}
							for _, k := range keys {
								if v, ok := idx.Get(k); !ok || v != k {
									t.Fatalf("get(%d) = %d,%v", k, v, ok)
								}
							}
						}
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
	// (gaps reshape locally near-linear runs almost perfectly).
	ycsb := dataset.Generate(dataset.YCSBNormal, 50000, 19)
	lsaY := LeafMetrics(LSA{SegLen: 256}.Build(ycsb, nil))
	gapY := LeafMetrics(LSAGap{SegLen: 256}.Build(ycsb, nil))
	if gapY.AvgErr >= lsaY.AvgErr {
		t.Fatalf("lsa-gap avg err %.2f not below lsa %.2f", gapY.AvgErr, lsaY.AvgErr)
	}
	// Opt-PLA guarantees a maximum error; Fig 17(b) compares leaf counts
	// at equal (max) error, where the separation is large on complex CDFs:
	// LSA can only cap its max error by shrinking segments drastically.
	keys := dataset.Generate(dataset.OSMLike, 50000, 19)
	lsa := LeafMetrics(LSA{SegLen: 64}.Build(keys, nil))
	opt := LeafMetrics(OptPLA{Eps: lsa.MaxErr}.Build(keys, nil))
	if opt.MaxErr > lsa.MaxErr+2 {
		t.Fatalf("opt-pla max err %d exceeds its bound %d", opt.MaxErr, lsa.MaxErr)
	}
	if opt.Segments*4 > lsa.Segments {
		t.Fatalf("opt-pla %d leaves not far fewer than lsa %d at max err %d",
			opt.Segments, lsa.Segments, lsa.MaxErr)
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
		if e.ConcurrentWrites != want {
			t.Fatalf("%s ConcurrentWrites = %v", e.Name, e.ConcurrentWrites)
		}
	}
}

// TestRegistryConcurrentWritesMatchCaps: an entry's ConcurrentWrites
// claim is what its index reports through CapsOf, the bit the server's
// lock tier and the store read.
func TestRegistryConcurrentWritesMatchCaps(t *testing.T) {
	for _, e := range Registry() {
		if got := index.CapsOf(e.New()).ConcurrentWrites; got != e.ConcurrentWrites {
			t.Errorf("%s: registry ConcurrentWrites = %v, CapsOf = %v", e.Name, e.ConcurrentWrites, got)
		}
	}
}

func TestRegistryConstructorsFunctional(t *testing.T) {
	keys := dataset.Generate(dataset.YCSBNormal, 5000, 23)
	for _, e := range Registry() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			idx := e.New()
			if err := idx.BulkLoad(keys, keys); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(keys); i += 13 {
				if v, ok := idx.Get(keys[i]); !ok || v != keys[i] {
					t.Fatalf("get(%d) = %d,%v", keys[i], v, ok)
				}
			}
		})
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
			regap(l, 0.7)
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
