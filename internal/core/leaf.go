// Package core is the paper's contribution turned into an API: it cuts
// updatable learned indexes into four orthogonal dimensions —
// approximation algorithm, index structure, insertion strategy, and
// retraining strategy (§IV) — and lets any combination be composed into
// a working index (§IV opens by noting the dimensions are orthogonal and
// can form brand-new indexes). The §IV microbenchmarks (Fig 17, Fig 18)
// are sweeps over these pieces.
package core

import (
	"learnedpieces/internal/learned/delta"
	"learnedpieces/internal/pla"
	"learnedpieces/internal/search"
)

// Leaf is one leaf node of a composed index: a linear model over either a
// packed sorted run or a gapped array (Occ != nil). Leaves are the unit
// the approximation algorithms produce and the insertion/retraining
// strategies operate on.
type Leaf struct {
	pla.Model // key -> slot
	MaxErr    int
	Keys      []uint64
	Vals      []uint64
	Occ       pla.Bitmap // occupancy of a gapped leaf; nil for packed leaves
	NumKeys   int
	// Buf is the side buffer of the buffer strategies: keys absent from
	// the base, a Delete leaving a tombstone.
	Buf delta.Run

	// Composed's bookkeeping: the leaf's slot in the leaf table, its
	// neighbours in key order, and the buffer insertion point of the last
	// key buffered missed.
	id         int
	prev, next *Leaf
	bufAt      int
}

// remeasure recomputes MaxErr against the leaf-local model.
func (l *Leaf) remeasure() {
	l.MaxErr = 0
	for i, k := range l.Keys {
		if !l.live(i) {
			continue
		}
		e := l.Predict(k, len(l.Keys)) - i
		if e < 0 {
			e = -e
		}
		if e > l.MaxErr {
			l.MaxErr = e
		}
	}
}

// Find returns the slot holding key and whether it is present (the
// Fig 17 microbenchmarks time this in-leaf search directly).
func (l *Leaf) Find(key uint64) (int, bool) { return l.find(key) }

// find returns the slot of key, or (insertionSlot, false).
func (l *Leaf) find(key uint64) (int, bool) {
	if l.Occ != nil {
		return l.findGapped(key)
	}
	n := len(l.Keys)
	if n == 0 {
		return 0, false
	}
	p := l.Predict(key, n)
	at, ok := search.FindBounded(l.Keys, key, p-l.MaxErr, p+l.MaxErr+1)
	if ok {
		return at, true
	}
	// Window insurance: walk to the true lower bound, so a miss is an
	// exact insertion rank and a key an appended tail moved out of the
	// window is still found.
	for at > 0 && l.Keys[at-1] >= key {
		at--
	}
	for at < n && l.Keys[at] < key {
		at++
	}
	return at, at < n && l.Keys[at] == key
}

// gapped views a gapped leaf as the pla node its operations live on. By
// value, so a call through it stays allocation-free (the pointer does not
// escape); writers copy NumKeys back.
func (l *Leaf) gapped() pla.GappedNode {
	return pla.GappedNode{Model: l.Model, Keys: l.Keys, Values: l.Vals, Occ: l.Occ, NumKeys: l.NumKeys}
}

// setGapped makes l the gapped leaf g lays out.
func (l *Leaf) setGapped(g *pla.GappedNode) {
	l.Model, l.Keys, l.Vals, l.Occ, l.NumKeys = g.Model, g.Keys, g.Values, g.Occ, g.NumKeys
	l.remeasure()
}

// live reports whether base slot i holds an entry (every slot of a packed
// leaf does).
func (l *Leaf) live(i int) bool { return l.Occ == nil || l.Occ.Has(i) }

func (l *Leaf) findGapped(key uint64) (int, bool) {
	g := l.gapped()
	s, ok := g.SlotOf(key)
	if ok {
		return s, true
	}
	return l.Predict(key, len(l.Keys)), false
}

// buffered returns the buffer slot holding key, live or a tombstone; an
// empty buffer is not searched.
func (l *Leaf) buffered(key uint64) (i int, ok bool) {
	if len(l.Buf.Keys) > 0 {
		i, ok = l.Buf.Pos(key)
	}
	l.bufAt = i
	return i, ok
}

// buffer adds a key to the side buffer: at the insertion point buffered
// last found, when that still brackets key (so an insert searches the
// buffer once), else wherever Upsert puts it.
func (l *Leaf) buffer(key, value uint64) {
	b, i := &l.Buf, l.bufAt
	if i > len(b.Keys) || i > 0 && b.Keys[i-1] >= key || i < len(b.Keys) && b.Keys[i] <= key {
		b.Upsert(key, value, false)
		return
	}
	b.Set(i, false, key, value, false)
}

// snapshot returns the leaf's live entries, buffer merged in, in fresh
// arrays: what a retrain rebuilds from, taken on the writer's timeline so
// the build never reads the live leaf.
func (l *Leaf) snapshot() delta.Run {
	base := delta.Run{Keys: l.Keys, Vals: l.Vals}
	if l.Occ != nil {
		base = delta.Run{Keys: make([]uint64, 0, l.NumKeys), Vals: make([]uint64, 0, l.NumKeys)}
		for i, k := range l.Keys {
			if l.Occ.Has(i) {
				base.Keys = append(base.Keys, k)
				base.Vals = append(base.Vals, l.Vals[i])
			}
		}
	}
	return delta.Merge(l.Buf, base, false)
}

// An Approximator is the approximation-CDF dimension: it turns a sorted
// key run into model leaves.
type Approximator interface {
	Name() string
	// Build produces the leaves for sorted distinct keys with parallel
	// values (values may be nil).
	Build(keys, vals []uint64) []*Leaf
}

// LSA is the least-squares algorithm over fixed-length segments (XIndex).
type LSA struct {
	// SegLen is the fixed keys-per-segment; <= 0 picks 256.
	SegLen int
}

// Name implements Approximator.
func (a LSA) Name() string { return "lsa" }

// Build implements Approximator.
func (a LSA) Build(keys, vals []uint64) []*Leaf {
	segLen := a.SegLen
	if segLen <= 0 {
		segLen = 256
	}
	return packedLeaves(keys, vals, pla.BuildLSA(keys, segLen))
}

// OptPLA is the optimal streaming PLA with a max-error bound (PGM-Index).
type OptPLA struct {
	// Eps is the maximum error; <= 0 picks 32.
	Eps int
}

// Name implements Approximator.
func (a OptPLA) Name() string { return "opt-pla" }

// Build implements Approximator.
func (a OptPLA) Build(keys, vals []uint64) []*Leaf {
	eps := a.Eps
	if eps <= 0 {
		eps = 32
	}
	return packedLeaves(keys, vals, pla.BuildOptPLA(keys, eps))
}

// Greedy is the feasible-space-window greedy segmentation (FITing-tree).
type Greedy struct {
	// Eps is the maximum error; <= 0 picks 32.
	Eps int
}

// Name implements Approximator.
func (a Greedy) Name() string { return "greedy" }

// Build implements Approximator.
func (a Greedy) Build(keys, vals []uint64) []*Leaf {
	eps := a.Eps
	if eps <= 0 {
		eps = 32
	}
	return packedLeaves(keys, vals, pla.BuildGreedy(keys, eps))
}

// LSAGap is least squares with gaps (ALEX): it actively reshapes the
// stored distribution by placing keys at model-predicted slots of an
// under-filled array, filled to pla.BuildDensity.
type LSAGap struct {
	// SegLen is the keys-per-leaf; <= 0 picks 256.
	SegLen int
}

// Name implements Approximator.
func (a LSAGap) Name() string { return "lsa-gap" }

// Build implements Approximator.
func (a LSAGap) Build(keys, vals []uint64) []*Leaf {
	segLen := a.SegLen
	if segLen <= 0 {
		segLen = 256
	}
	var leaves []*Leaf
	for start := 0; start < len(keys); start += segLen {
		end := start + segLen
		if end > len(keys) {
			end = len(keys)
		}
		var vs []uint64
		if vals != nil {
			vs = vals[start:end]
		}
		l := new(Leaf)
		l.setGapped(pla.BuildLSAGap(keys[start:end], vs, pla.BuildDensity))
		leaves = append(leaves, l)
	}
	if leaves == nil {
		leaves = []*Leaf{emptyLeaf()}
	}
	return leaves
}

func emptyLeaf() *Leaf {
	return &Leaf{Keys: []uint64{}, Vals: []uint64{}}
}

// packedLeaves copies segment runs into leaves with re-anchored models,
// each run in arrays of exactly its length: a strategy's Prepare decides
// what room a leaf gets.
func packedLeaves(keys, vals []uint64, segs []pla.Segment) []*Leaf {
	if len(segs) == 0 {
		return []*Leaf{emptyLeaf()}
	}
	leaves := make([]*Leaf, len(segs))
	for i, s := range segs {
		n := s.End - s.Start
		l := &Leaf{Model: s.Local(), Keys: make([]uint64, n), Vals: make([]uint64, n), NumKeys: n}
		copy(l.Keys, keys[s.Start:s.End])
		if vals != nil {
			copy(l.Vals, vals[s.Start:s.End])
		}
		l.remeasure()
		leaves[i] = l
	}
	return leaves
}

// LeafMetrics measures a set of leaves the way Fig 17a/b plots them:
// leaf count, average model error and maximum error over live keys.
func LeafMetrics(leaves []*Leaf) pla.Metrics {
	m := pla.Metrics{Segments: len(leaves)}
	var sum float64
	var total int
	for _, l := range leaves {
		for i, k := range l.Keys {
			if !l.live(i) {
				continue
			}
			e := l.Predict(k, len(l.Keys)) - i
			if e < 0 {
				e = -e
			}
			sum += float64(e)
			total++
			if e > m.MaxErr {
				m.MaxErr = e
			}
		}
	}
	if total > 0 {
		m.AvgErr = sum / float64(total)
	}
	return m
}
