package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"learnedpieces/internal/index"
	"learnedpieces/internal/pla"
)

// An InsertStrategy is the insertion dimension (§IV-D): how a leaf
// absorbs a new key. The three variants are the ones Fig 18(a) compares.
type InsertStrategy interface {
	Name() string
	// Prepare reserves whatever space the strategy needs in a fresh leaf.
	Prepare(l *Leaf)
	// Insert adds key to the leaf. inserted=false means the leaf had no
	// room (the caller retrains with the pending key); retrain=true asks
	// for a retrain after a successful insert.
	Insert(l *Leaf, key, value uint64) (inserted, retrain bool)
}

// Inplace reserves free slots at the end of each packed leaf and shifts
// keys to make room (FITing-tree-inp). Fig 18(a): the slowest strategy,
// degrading as the reserved space grows.
type Inplace struct {
	// Reserve is the slot count reserved per leaf; <= 0 picks 256.
	Reserve int
}

// Name implements InsertStrategy.
func (s Inplace) Name() string { return "inplace" }

func (s Inplace) reserve() int {
	if s.Reserve <= 0 {
		return 256
	}
	return s.Reserve
}

// Prepare implements InsertStrategy.
func (s Inplace) Prepare(l *Leaf) {
	if l.Occ != nil {
		return // gapped leaves have their own reserve
	}
	if cap(l.Keys) > len(l.Keys) {
		return // already reserved
	}
	keys := make([]uint64, len(l.Keys), len(l.Keys)+s.reserve())
	vals := make([]uint64, len(l.Vals), len(l.Vals)+s.reserve())
	copy(keys, l.Keys)
	copy(vals, l.Vals)
	l.Keys, l.Vals = keys, vals
}

// Insert implements InsertStrategy.
func (s Inplace) Insert(l *Leaf, key, value uint64) (bool, bool) {
	if len(l.Keys) == cap(l.Keys) {
		return false, true
	}
	at, _ := l.find(key)
	l.Keys = append(l.Keys, 0)
	l.Vals = append(l.Vals, 0)
	copy(l.Keys[at+1:], l.Keys[at:])
	copy(l.Vals[at+1:], l.Vals[at:])
	l.Keys[at] = key
	l.Vals[at] = value
	l.NumKeys++
	l.MaxErr++ // positions shifted by at most one more slot
	return true, false
}

// BufferInsert gives each leaf a sorted side buffer (FITing-tree-buf,
// XIndex, PGM's level-0 spirit); a full buffer triggers a retrain.
type BufferInsert struct {
	// Size is the buffer capacity; <= 0 picks 256. Fig 18(a/c) sweeps it.
	Size int
}

// Name implements InsertStrategy.
func (s BufferInsert) Name() string { return "buffer" }

func (s BufferInsert) size() int {
	if s.Size <= 0 {
		return 256
	}
	return s.Size
}

// Prepare implements InsertStrategy.
func (s BufferInsert) Prepare(l *Leaf) {}

// Insert implements InsertStrategy.
func (s BufferInsert) Insert(l *Leaf, key, value uint64) (bool, bool) {
	i := sort.Search(len(l.BufK), func(j int) bool { return l.BufK[j] >= key })
	l.BufK = append(l.BufK, 0)
	l.BufV = append(l.BufV, 0)
	copy(l.BufK[i+1:], l.BufK[i:])
	copy(l.BufV[i+1:], l.BufV[i:])
	l.BufK[i] = key
	l.BufV[i] = value
	return true, len(l.BufK) >= s.size()
}

// GapInsert is ALEX's model-based in-place gap insertion; the reserved
// space is the gaps the approximation algorithm itself created, so the
// user cannot size it directly (§IV-D).
type GapInsert struct {
	// UpperDensity triggers retraining; <= 0 picks 0.8.
	UpperDensity float64
}

// Name implements InsertStrategy.
func (s GapInsert) Name() string { return "alex-gap" }

func (s GapInsert) upper() float64 {
	if s.UpperDensity <= 0 || s.UpperDensity > 1 {
		return 0.8
	}
	return s.UpperDensity
}

// Prepare implements InsertStrategy.
func (s GapInsert) Prepare(l *Leaf) {
	if l.Occ != nil {
		return
	}
	// Packed leaf composed with gap insertion: re-lay it out gapped. This
	// is exactly the recombination the paper proposes (§V-B1: ATS or LRS
	// plus LSA-gap).
	regap(l, 0.7)
}

// Insert implements InsertStrategy: ALEX's model-based gap insertion
// (pla.GappedNode.InsertReplace) applied to a composed leaf.
func (s GapInsert) Insert(l *Leaf, key, value uint64) (bool, bool) {
	if len(l.Keys) == 0 || l.NumKeys >= len(l.Keys) {
		return false, true
	}
	g := l.gapped()
	if _, ok := g.InsertReplace(key, value, nil); !ok {
		return false, true
	}
	l.NumKeys = g.NumKeys
	if e := gapErr(&g, key); e > l.MaxErr {
		l.MaxErr = e
	}
	return true, float64(l.NumKeys)/float64(len(l.Keys)) >= s.upper()
}

func gapErr(g *pla.GappedNode, key uint64) int {
	s, ok := g.SlotOf(key)
	if !ok {
		return 0
	}
	e := s - g.Predict(key, g.Capacity())
	if e < 0 {
		e = -e
	}
	return e
}

// regap converts a leaf's live entries into a gapped layout.
func regap(l *Leaf, density float64) {
	keys, vals := l.entries()
	l.BufK, l.BufV = nil, nil
	l.setGapped(pla.BuildLSAGap(keys, vals, density))
}

// A RetrainPolicy is the retraining dimension (§IV-E): how an over-full
// leaf is rebuilt.
type RetrainPolicy interface {
	Name() string
	// Retrain rebuilds the live entries of one leaf into replacements.
	Retrain(a Approximator, keys, vals []uint64) []*Leaf
}

// RetrainNode re-approximates the node, splitting it into however many
// segments the algorithm needs (FITing-tree / XIndex style).
type RetrainNode struct{}

// Name implements RetrainPolicy.
func (RetrainNode) Name() string { return "retrain-node" }

// Retrain implements RetrainPolicy.
func (RetrainNode) Retrain(a Approximator, keys, vals []uint64) []*Leaf {
	return a.Build(keys, vals)
}

// ExpandOrSplit keeps a node whole while it is small (expand: rebuild at
// lower density, amortising many inserts per retrain) and halves it once
// it exceeds MaxLeafKeys (ALEX style).
type ExpandOrSplit struct {
	// MaxLeafKeys is the split threshold; <= 0 picks 4096.
	MaxLeafKeys int
}

// Name implements RetrainPolicy.
func (ExpandOrSplit) Name() string { return "expand-split" }

// Retrain implements RetrainPolicy.
func (p ExpandOrSplit) Retrain(a Approximator, keys, vals []uint64) []*Leaf {
	maxKeys := p.MaxLeafKeys
	if maxKeys <= 0 {
		maxKeys = 4096
	}
	if len(keys) <= maxKeys {
		return gappedWhole(keys, vals)
	}
	mid := len(keys) / 2
	out := gappedWhole(keys[:mid], vals[:mid])
	return append(out, gappedWhole(keys[mid:], vals[mid:])...)
}

func gappedWhole(keys, vals []uint64) []*Leaf {
	// Expanded nodes are rebuilt at ALEX's lower density bound (0.6) so
	// each retrain buys several times its cost in future gap inserts.
	l := new(Leaf)
	l.setGapped(pla.BuildLSAGap(keys, vals, 0.6))
	return []*Leaf{l}
}

// Composed is an updatable learned index assembled from one choice per
// dimension — the artefact the paper argues the dimensions' orthogonality
// makes possible.
type Composed struct {
	approx    Approximator
	structure Structure
	strategy  InsertStrategy
	policy    RetrainPolicy

	leaves []*Leaf
	firsts []uint64
	length int

	retrains  atomic.Int64
	retrainNs atomic.Int64
}

var _ index.Index = (*Composed)(nil)

// Compose assembles an index from the four dimensions.
func Compose(a Approximator, s Structure, ins InsertStrategy, pol RetrainPolicy) *Composed {
	c := &Composed{approx: a, structure: s, strategy: ins, policy: pol}
	c.install(c.prepare([]*Leaf{emptyLeaf()}))
	return c
}

// Name implements index.Index: the dimension choices, joined.
func (c *Composed) Name() string {
	return c.structure.Name() + "+" + c.approx.Name() + "+" + c.strategy.Name() + "+" + c.policy.Name()
}

// Len returns the number of stored entries.
func (c *Composed) Len() int { return c.length }

// RetrainStats implements index.RetrainReporter.
func (c *Composed) RetrainStats() (int64, int64) { return c.retrains.Load(), c.retrainNs.Load() }

// LeafCount returns the current leaf count.
func (c *Composed) LeafCount() int { return len(c.leaves) }

// Structure exposes the structure piece (for depth/size reporting).
func (c *Composed) Structure() Structure { return c.structure }

// install swaps in the leaf list and rebuilds the structure. Leaves must
// already be Prepare'd — only freshly created leaves are prepared, so
// retrains do not touch unrelated leaves.
func (c *Composed) install(leaves []*Leaf) {
	c.leaves = leaves
	c.firsts = make([]uint64, len(leaves))
	for i, l := range leaves {
		c.firsts[i] = l.FirstKey
	}
	c.structure.Build(c.firsts)
}

func (c *Composed) prepare(leaves []*Leaf) []*Leaf {
	for _, l := range leaves {
		c.strategy.Prepare(l)
	}
	return leaves
}

// BulkLoad builds the index over sorted distinct keys.
func (c *Composed) BulkLoad(keys, values []uint64) error {
	c.install(c.prepare(c.approx.Build(keys, values)))
	c.length = len(keys)
	return nil
}

// Get returns the value stored under key.
func (c *Composed) Get(key uint64) (uint64, bool) {
	l := c.leaves[c.structure.Locate(key)]
	if at, ok := l.find(key); ok {
		return l.Vals[at], true
	}
	if len(l.BufK) > 0 {
		i := sort.Search(len(l.BufK), func(j int) bool { return l.BufK[j] >= key })
		if i < len(l.BufK) && l.BufK[i] == key {
			return l.BufV[i], true
		}
	}
	return 0, false
}

// Insert stores value under key, replacing any existing value.
func (c *Composed) Insert(key, value uint64) error {
	_, err := c.InsertReplace(key, value)
	return err
}

// InsertReplace implements index.Upserter: the leaf search that decides
// between replace and insert is the existence answer.
func (c *Composed) InsertReplace(key, value uint64) (bool, error) {
	li := c.structure.Locate(key)
	l := c.leaves[li]
	if at, ok := l.find(key); ok {
		l.Vals[at] = value
		return true, nil
	}
	if len(l.BufK) > 0 {
		i := sort.Search(len(l.BufK), func(j int) bool { return l.BufK[j] >= key })
		if i < len(l.BufK) && l.BufK[i] == key {
			l.BufV[i] = value
			return true, nil
		}
	}
	inserted, retrain := c.strategy.Insert(l, key, value)
	if inserted {
		c.length++
	}
	if retrain {
		c.retrainLeaf(li, l, key, value, inserted)
		if !inserted {
			c.length++
		}
	}
	return false, nil
}

// retrainLeaf rebuilds leaf li via the policy, splicing the replacements
// into the leaf list and rebuilding the structure.
func (c *Composed) retrainLeaf(li int, l *Leaf, key, value uint64, keyIncluded bool) {
	start := time.Now()
	keys, vals := l.entries()
	if !keyIncluded {
		at := sort.Search(len(keys), func(j int) bool { return keys[j] >= key })
		keys = append(keys, 0)
		vals = append(vals, 0)
		copy(keys[at+1:], keys[at:])
		copy(vals[at+1:], vals[at:])
		keys[at] = key
		vals[at] = value
	}
	repl := c.prepare(c.policy.Retrain(c.approx, keys, vals))
	next := make([]*Leaf, 0, len(c.leaves)+len(repl)-1)
	next = append(next, c.leaves[:li]...)
	next = append(next, repl...)
	next = append(next, c.leaves[li+1:]...)
	c.install(next)
	c.retrains.Add(1)
	c.retrainNs.Add(time.Since(start).Nanoseconds())
}

// Delete removes key and reports whether it was present.
func (c *Composed) Delete(key uint64) bool {
	l := c.leaves[c.structure.Locate(key)]
	if at, ok := l.find(key); ok {
		if l.Occ != nil {
			g := l.gapped()
			g.Remove(at)
			l.NumKeys = g.NumKeys
			c.length--
			return true
		} else {
			copy(l.Keys[at:], l.Keys[at+1:])
			copy(l.Vals[at:], l.Vals[at+1:])
			l.Keys = l.Keys[:len(l.Keys)-1]
			l.Vals = l.Vals[:len(l.Vals)-1]
			l.MaxErr++
		}
		l.NumKeys--
		c.length--
		return true
	}
	if len(l.BufK) > 0 {
		i := sort.Search(len(l.BufK), func(j int) bool { return l.BufK[j] >= key })
		if i < len(l.BufK) && l.BufK[i] == key {
			l.BufK = append(l.BufK[:i], l.BufK[i+1:]...)
			l.BufV = append(l.BufV[:i], l.BufV[i+1:]...)
			c.length--
			return true
		}
	}
	return false
}

// cursor streams the leaves in order, draining each with a two-pointer
// merge of its (possibly gapped) base array and its sorted side buffer.
type cursor struct {
	leaves []*Leaf
	li     int // current leaf
	i, j   int // next base slot / buffer slot of leaves[li]
	start  uint64
}

var cursorPool = sync.Pool{New: func() any { return new(cursor) }}

// Range implements index.Ranger: the structure piece locates the leaf
// covering start, then the walk is leaf-sequential. No mutation while
// the cursor is open.
func (c *Composed) Range(start uint64) index.Cursor {
	cur := cursorPool.Get().(*cursor)
	*cur = cursor{leaves: c.leaves, li: c.structure.Locate(start), start: start}
	return cur
}

// Next fills the destination slices with the next entries in key order.
func (cur *cursor) Next(keys, vals []uint64) int {
	n := 0
	for n < len(keys) && cur.li < len(cur.leaves) {
		l := cur.leaves[cur.li]
		if l.Occ != nil {
			cur.i = l.Occ.NextSet(cur.i, len(l.Keys)) // step over the gap run
		}
		base, buf := cur.i < len(l.Keys), cur.j < len(l.BufK)
		var k, v uint64
		switch {
		case buf && (!base || l.BufK[cur.j] < l.Keys[cur.i]):
			k, v = l.BufK[cur.j], l.BufV[cur.j]
			cur.j++
		case base:
			k, v = l.Keys[cur.i], l.Vals[cur.i]
			cur.i++
		default:
			cur.li, cur.i, cur.j = cur.li+1, 0, 0
			continue
		}
		// Only the first leaf can hold keys below start.
		if k >= cur.start {
			keys[n], vals[n] = k, v
			n++
		}
	}
	return n
}

func (cur *cursor) Close() {
	cur.leaves = nil
	cursorPool.Put(cur)
}

// AvgDepth implements index.DepthReporter via the structure piece.
func (c *Composed) AvgDepth() float64 { return c.structure.Depth() }

// Sizes implements index.Index.
func (c *Composed) Sizes() index.Sizes {
	var kb, vb, st int64
	st = c.structure.SizeBytes() + int64(len(c.leaves))*64
	for _, l := range c.leaves {
		kb += int64(cap(l.Keys)+len(l.BufK)) * 8
		vb += int64(cap(l.Vals)+len(l.BufV)) * 8
	}
	return index.Sizes{Structure: st, Keys: kb, Values: vb}
}
