package core

import (
	"sort"

	"learnedpieces/internal/btree"
	"learnedpieces/internal/pla"
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
	return []Structure{NewBTreeTop(), NewLRS(8), NewRMITop(0), NewATS(16, 64)}
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

// LRS is the linear recursive structure (PGM-Index): Opt-PLA levels over
// the leaf first keys, descended by calculation.
type LRS struct {
	eps     int
	domains [][]uint64
	levels  [][]pla.Segment
}

// NewLRS returns an LRS with the given internal error bound (<=0: 8).
func NewLRS(eps int) *LRS {
	if eps <= 0 {
		eps = 8
	}
	return &LRS{eps: eps}
}

// Name implements Structure.
func (s *LRS) Name() string { return "lrs" }

// Build implements Structure.
func (s *LRS) Build(firsts []uint64) {
	s.domains = nil
	s.levels = nil
	if len(firsts) == 0 {
		return
	}
	domain := firsts
	for {
		segs := pla.BuildOptPLA(domain, s.eps)
		s.domains = append(s.domains, domain)
		s.levels = append(s.levels, segs)
		if len(segs) == 1 {
			return
		}
		next := make([]uint64, len(segs))
		for i := range segs {
			next[i] = segs[i].FirstKey
		}
		domain = next
	}
}

// Locate implements Structure.
func (s *LRS) Locate(key uint64) int {
	if len(s.levels) == 0 {
		return 0
	}
	idx := 0
	for lvl := len(s.levels) - 1; lvl >= 0; lvl-- {
		seg := &s.levels[lvl][idx]
		idx = floorWindow(s.domains[lvl], seg.Predict(key), s.eps, key)
	}
	return idx
}

// Depth implements Structure.
func (s *LRS) Depth() float64 { return float64(len(s.levels)) }

// SizeBytes implements Structure.
func (s *LRS) SizeBytes() int64 {
	var n int64
	for _, lvl := range s.levels {
		n += int64(len(lvl)) * 56
	}
	for i := 1; i < len(s.domains); i++ {
		n += int64(len(s.domains[i])) * 8
	}
	return n
}

// floorWindow returns the index of the greatest domain element <= key,
// searching an eps window around p and correcting outward.
func floorWindow(domain []uint64, p, eps int, key uint64) int {
	lo := p - eps - 1
	hi := p + eps + 2
	if lo < 0 {
		lo = 0
	}
	if hi > len(domain) {
		hi = len(domain)
	}
	w := domain[lo:hi]
	j := lo + sort.Search(len(w), func(i int) bool { return w[i] > key })
	for j < len(domain) && domain[j] <= key {
		j++
	}
	for j > 0 && domain[j-1] > key {
		j--
	}
	if j == 0 {
		return 0
	}
	return j - 1
}

// RMITop is the two-layer RMI structure (XIndex's root).
type RMITop struct {
	want   int // second-stage model count asked for
	firsts []uint64
	root   pla.Model // key -> second-stage model
	// Second stage: per-model linear with error bounds.
	models     []pla.Model
	minE, maxE []int32
	bounds     []int // model m covers firsts[bounds[m]:bounds[m+1]]
}

// NewRMITop returns a two-layer RMI; models <= 0 picks len/64.
func NewRMITop(models int) *RMITop { return &RMITop{want: models} }

// Name implements Structure.
func (s *RMITop) Name() string { return "rmi" }

// Build implements Structure.
func (s *RMITop) Build(firsts []uint64) {
	s.firsts = firsts
	if len(firsts) == 0 {
		return
	}
	m := s.want
	if m <= 0 {
		m = len(firsts) / 64
	}
	if m < 1 {
		m = 1
	}
	seg := pla.FitLinear(firsts, 0, len(firsts))
	scale := float64(m) / float64(len(firsts))
	s.root = pla.Model{FirstKey: firsts[0], Slope: seg.Slope * scale, Intercept: seg.Local().Intercept * scale}
	s.models = make([]pla.Model, m)
	s.minE = make([]int32, m)
	s.maxE = make([]int32, m)
	s.bounds = make([]int, m+1)
	s.bounds[m] = len(firsts)
	pos := 0
	for mi := 0; mi < m; mi++ {
		s.bounds[mi] = pos
		for pos < len(firsts) && s.root.Predict(firsts[pos], m) <= mi {
			pos++
		}
		lo, hi := s.bounds[mi], pos
		s.models[mi] = pla.Model{Intercept: float64(lo)}
		if lo < hi {
			s.models[mi] = pla.FitLinear(firsts, lo, hi).Model
		}
		var mn, mx int32
		for i := lo; i < hi; i++ {
			e := int32(i - s.models[mi].Predict(firsts[i], len(firsts)))
			if e < mn {
				mn = e
			}
			if e > mx {
				mx = e
			}
		}
		s.minE[mi], s.maxE[mi] = mn, mx
	}
}

// Locate implements Structure.
func (s *RMITop) Locate(key uint64) int {
	if len(s.firsts) == 0 {
		return 0
	}
	mi := s.root.Predict(key, len(s.models))
	p := s.models[mi].Predict(key, len(s.firsts))
	return floorWindow(s.firsts, p, int(s.maxE[mi]-s.minE[mi])+1, key)
}

// Depth implements Structure.
func (s *RMITop) Depth() float64 { return 2 }

// SizeBytes implements Structure.
func (s *RMITop) SizeBytes() int64 { return int64(len(s.models))*40 + 32 }

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
	in, starts, ok := s.makeInner(lo, hi, fanout)
	if !ok {
		return atsRange{lo, hi}
	}
	for c := 0; c < len(in.children); c++ {
		in.children[c] = s.build(starts[c], starts[c+1])
	}
	return in
}

// makeInner fits the routing model over firsts[lo:hi] and partitions the
// range into per-child bounds (falling back to a model-consistent binary
// split when the fit is degenerate). ok is false when even the fallback
// cannot separate the keys — the caller should use a range leaf.
func (s *ATS) makeInner(lo, hi, fanout int) (*atsInner, []int, bool) {
	n := hi - lo
	fit := pla.FitLinear(s.firsts, lo, hi)
	in := &atsInner{
		Model: pla.Model{
			FirstKey:  s.firsts[lo],
			Slope:     fit.Slope * float64(fanout) / float64(n),
			Intercept: fit.Local().Intercept * float64(fanout) / float64(n),
		},
		children: make([]atsNode, fanout),
	}
	starts := s.partitionRange(in, lo, hi)
	if maxRunInts(starts) < n {
		return in, starts, true
	}
	// Degenerate model: binary split anchored at the median key; the cut
	// is derived from the model itself so routing and storage agree.
	mid := lo + n/2
	in.children = make([]atsNode, 2)
	in.Slope = 1 / float64(s.firsts[mid]-s.firsts[lo])
	in.Intercept = 0
	if in.Predict(s.firsts[hi-1], len(in.children)) < 1 {
		// Float rounding defeated the split (pathological spacing): a
		// plain range leaf is still correct, just slower.
		return nil, nil, false
	}
	starts = s.partitionRange(in, lo, hi)
	return in, starts, true
}

// partitionRange groups firsts[lo:hi] into contiguous per-child runs
// exactly matching the inner model's routing.
func (s *ATS) partitionRange(in *atsInner, lo, hi int) []int {
	fanout := len(in.children)
	starts := make([]int, fanout+1)
	starts[fanout] = hi
	pos := lo
	for c := 0; c < fanout; c++ {
		starts[c] = pos
		for pos < hi && in.Predict(s.firsts[pos], fanout) <= c {
			pos++
		}
	}
	return starts
}

func maxRunInts(bounds []int) int {
	m := 0
	for i := 0; i+1 < len(bounds); i++ {
		if w := bounds[i+1] - bounds[i]; w > m {
			m = w
		}
	}
	return m
}

// Locate implements Structure.
func (s *ATS) Locate(key uint64) int {
	n := s.root
	for {
		switch x := n.(type) {
		case *atsInner:
			n = x.children[x.Predict(key, len(x.children))]
		case atsRange:
			w := s.firsts[x.lo:x.hi]
			j := x.lo + sort.Search(len(w), func(i int) bool { return w[i] > key })
			if j == 0 {
				return 0
			}
			return j - 1
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
