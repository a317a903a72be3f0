package core

import (
	"learnedpieces/internal/btree"
	"learnedpieces/internal/pla"
	"learnedpieces/internal/search"
)

// A Structure is the index-structure dimension (§IV-B): given the sorted
// first keys of the leaves, it locates the leaf covering a key. The four
// variants are the ones the paper benchmarks in Fig 17(c).
type Structure interface {
	Name() string
	// Build (re)constructs the structure over the leaf first keys.
	Build(firsts []uint64)
	// Locate returns the index of the last leaf whose first key is <= key
	// (0 when key precedes every leaf): its position among the firsts
	// last built, or the id BTreeTop.replace filed it under since.
	Locate(key uint64) int
	// Depth is the average number of levels traversed per Locate.
	Depth() float64
	// SizeBytes is the structure's memory footprint.
	SizeBytes() int64
}

// Structures returns the structure dimension's catalogue.
func Structures() []Structure {
	return []Structure{NewBTreeTop(), pla.NewLRS(8), pla.NewRMI(0), NewATS(16, 64)}
}

// BTreeTop is the comparison-based baseline structure (FITing-tree). It
// maps first keys to ids in a composed index's leaf table, so a retrain
// updates only the entries it replaced (replace) and leaves every other
// leaf's id alone.
type BTreeTop struct {
	t *btree.BTree
}

// NewBTreeTop returns an empty B+tree structure.
func NewBTreeTop() *BTreeTop { return &BTreeTop{t: btree.New()} }

// Name implements Structure.
func (s *BTreeTop) Name() string { return "btree" }

// Build implements Structure.
func (s *BTreeTop) Build(firsts []uint64) {
	s.t = btree.New()
	ids := make([]uint64, len(firsts))
	for i := range ids {
		ids[i] = uint64(i)
	}
	// firsts is sorted by construction, the only condition BulkLoad checks.
	_ = s.t.BulkLoad(firsts, ids)
}

// Locate implements Structure.
func (s *BTreeTop) Locate(key uint64) int {
	_, id, ok := s.t.Floor(key)
	if !ok {
		return 0
	}
	return int(id)
}

// replace swaps old's entry for the replacement leaves', each under the
// id it already holds: the one B+tree update a leaf retrain makes.
func (s *BTreeTop) replace(old uint64, repl []*Leaf) {
	s.t.Delete(old)
	for _, l := range repl {
		// The B+tree's Insert error is interface-shaped and always nil.
		_ = s.t.Insert(l.FirstKey, uint64(l.id))
	}
}

// Depth implements Structure.
func (s *BTreeTop) Depth() float64 { return s.t.AvgDepth() }

// SizeBytes implements Structure.
func (s *BTreeTop) SizeBytes() int64 {
	sz := s.t.Sizes()
	return sz.Structure + sz.Keys + sz.Values
}

// ATS is the asymmetric tree structure (ALEX): model-routed inner nodes
// whose subtrees are deeper exactly where the key distribution is dense.
type ATS struct {
	maxDirect int // range-leaf size
	maxFanout int
	firsts    []uint64
	root      atsNode
}

type atsNode interface{}

type atsInner struct {
	pla.Model // key -> child
	children  []atsNode
}

type atsRange struct{ lo, hi int }

// NewATS returns an ATS; maxDirect <= 0 picks 16, maxFanout <= 0 picks 64.
func NewATS(maxDirect, maxFanout int) *ATS {
	if maxDirect <= 0 {
		maxDirect = 16
	}
	if maxFanout <= 0 {
		maxFanout = 64
	}
	return &ATS{maxDirect: maxDirect, maxFanout: maxFanout}
}

// Name implements Structure.
func (s *ATS) Name() string { return "ats" }

// Build implements Structure.
func (s *ATS) Build(firsts []uint64) {
	s.firsts = firsts
	if len(firsts) == 0 {
		s.root = atsRange{0, 0}
		return
	}
	s.root = s.build(0, len(firsts))
}

func (s *ATS) build(lo, hi int) atsNode {
	n := hi - lo
	if n <= s.maxDirect {
		return atsRange{lo, hi}
	}
	fanout := 2
	for fanout < s.maxFanout && n/fanout > s.maxDirect/2 {
		fanout *= 2
	}
	return s.inner(lo, hi, fanout, s.build)
}

// inner routes firsts[lo:hi] through a pla.FitRouter node, building
// each child's range with sub; a range leaf when the fit cannot separate
// the keys (correct, just slower).
func (s *ATS) inner(lo, hi, fanout int, sub func(lo, hi int) atsNode) atsNode {
	m, starts, ok := pla.FitRouter(s.firsts, lo, hi, fanout)
	if !ok {
		return atsRange{lo, hi}
	}
	in := &atsInner{Model: m, children: make([]atsNode, len(starts)-1)}
	for c := range in.children {
		in.children[c] = sub(starts[c], starts[c+1])
	}
	return in
}

// Locate implements Structure.
func (s *ATS) Locate(key uint64) int {
	n := s.root
	for {
		switch x := n.(type) {
		case *atsInner:
			n = x.children[x.Predict(key, len(x.children))]
		case atsRange:
			return search.Floor(s.firsts, key, x.lo, x.hi)
		}
	}
}

// Depth implements Structure.
func (s *ATS) Depth() float64 {
	var sum, leaves float64
	var walk func(n atsNode, d float64)
	walk = func(n atsNode, d float64) {
		switch x := n.(type) {
		case *atsInner:
			for _, c := range x.children {
				walk(c, d+1)
			}
		case atsRange:
			w := float64(x.hi - x.lo)
			if w == 0 {
				w = 1
			}
			sum += d * w
			leaves += w
		}
	}
	walk(s.root, 0)
	if leaves == 0 {
		return 0
	}
	return sum / leaves
}

// SizeBytes implements Structure.
func (s *ATS) SizeBytes() int64 {
	var n int64
	var walk func(node atsNode)
	walk = func(node atsNode) {
		switch x := node.(type) {
		case *atsInner:
			n += 48 + int64(len(x.children))*16
			for _, c := range x.children {
				walk(c)
			}
		case atsRange:
			n += 16
		}
	}
	walk(s.root)
	return n
}
