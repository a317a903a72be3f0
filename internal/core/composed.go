package core

import (
	"sync"
	"time"

	"learnedpieces/internal/index"
	"learnedpieces/internal/learned/delta"
	"learnedpieces/internal/pla"
	"learnedpieces/internal/retrain"
	"learnedpieces/internal/search"
)

// An InsertStrategy is the insertion dimension (§IV-D): how a leaf
// absorbs a new key. The three variants are the ones Fig 18(a) compares.
type InsertStrategy interface {
	Name() string
	// Prepare reserves whatever space the strategy needs in a fresh leaf.
	Prepare(l *Leaf)
	// Insert adds a key the leaf does not hold. inserted=false means the
	// leaf had no room (the caller rebuilds it and retries); retrain=true
	// asks for a retrain after a successful insert. inFlight says the
	// leaf's rebuild is on the retrain pool: a strategy that can grow the
	// leaf past its bound does, so the leaf keeps absorbing writes.
	Insert(l *Leaf, key, value uint64, inFlight bool) (inserted, retrain bool)
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

// Prepare implements InsertStrategy: a packed leaf gets exactly Reserve
// free slots.
func (s Inplace) Prepare(l *Leaf) {
	if l.Occ != nil {
		return // gapped leaves have their own reserve
	}
	keys := make([]uint64, len(l.Keys), len(l.Keys)+s.reserve())
	vals := make([]uint64, len(l.Vals), len(l.Vals)+s.reserve())
	copy(keys, l.Keys)
	copy(vals, l.Vals)
	l.Keys, l.Vals = keys, vals
}

// Insert implements InsertStrategy. A leaf whose rebuild is in flight
// keeps absorbing keys past its reserve (append regrows the arrays).
func (s Inplace) Insert(l *Leaf, key, value uint64, inFlight bool) (bool, bool) {
	if len(l.Keys) == cap(l.Keys) && !inFlight {
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

// Insert implements InsertStrategy. A leaf whose rebuild is in flight
// keeps buffering past Size.
func (s BufferInsert) Insert(l *Leaf, key, value uint64, _ bool) (bool, bool) {
	l.buffer(key, value)
	return true, len(l.Buf.Keys) >= s.size()
}

// GapInsert is ALEX's model-based in-place gap insertion; the reserved
// space is the gaps the approximation algorithm itself created, so the
// user cannot size it directly (§IV-D). A leaf is due for a retrain once
// an insert fills it to pla.ExpandDensity.
type GapInsert struct{}

// Name implements InsertStrategy.
func (s GapInsert) Name() string { return "alex-gap" }

// Prepare implements InsertStrategy.
func (s GapInsert) Prepare(l *Leaf) {
	if l.Occ != nil {
		return
	}
	// Packed leaf composed with gap insertion: re-lay it out gapped. This
	// is exactly the recombination the paper proposes (§V-B1: ATS or LRS
	// plus LSA-gap).
	regap(l)
}

// Insert implements InsertStrategy: ALEX's model-based gap insertion
// (pla.GappedNode.InsertReplace) applied to a composed leaf.
func (s GapInsert) Insert(l *Leaf, key, value uint64, _ bool) (bool, bool) {
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
	return true, float64(l.NumKeys)/float64(len(l.Keys)) >= pla.ExpandDensity
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

// regap converts a leaf's live entries into a gapped layout built at
// pla.BuildDensity.
func regap(l *Leaf) {
	r := l.snapshot()
	l.Buf = delta.Run{}
	l.setGapped(pla.BuildLSAGap(r.Keys, r.Vals, pla.BuildDensity))
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
	// Expanded nodes are rebuilt at ALEX's lower density bound so each
	// retrain buys several times its cost in future gap inserts.
	l := new(Leaf)
	l.setGapped(pla.BuildLSAGap(keys, vals, pla.RebuildDensity))
	return []*Leaf{l}
}

// Composed is an updatable learned index assembled from one choice per
// dimension — the artefact the paper argues the dimensions' orthogonality
// makes possible.
//
// Retraining has one path (index.AsyncRetrainer, through retrain.Aside):
// a leaf due for a rebuild is snapshotted with its buffer merged in, the
// policy rebuilds the snapshot as one task on the retrain pool (inline
// when there is no pool), and the replacements are installed on the
// writer's timeline, where the writes that hit the leaf meanwhile are
// replayed from an op log. Composed has a single-writer contract, so the
// task never touches the live structure.
type Composed struct {
	approx    Approximator
	structure Structure
	strategy  InsertStrategy
	policy    RetrainPolicy
	name      string // a preset's registry name; "" names the dimensions

	// leaves is the leaf table the structure's ids index. The B+tree
	// keeps ids stable across retrains; the static structures are
	// rebuilt, and their ids are positions. Leaves are also chained in
	// key order (Leaf.prev/next) for the cursor.
	leaves []*Leaf
	length int

	aside retrain.Aside[*Leaf, []*Leaf]
}

var _ index.Index = (*Composed)(nil)

// Compose assembles an index from the four dimensions.
func Compose(a Approximator, s Structure, ins InsertStrategy, pol RetrainPolicy) *Composed {
	c := &Composed{approx: a, structure: s, strategy: ins, policy: pol}
	c.aside.Init(c.apply)
	c.install(c.prepare([]*Leaf{emptyLeaf()}))
	return c
}

// Name implements index.Index: a preset's name, else the dimension
// choices, joined.
func (c *Composed) Name() string {
	if c.name != "" {
		return c.name
	}
	return c.structure.Name() + "+" + c.approx.Name() + "+" + c.strategy.Name() + "+" + c.policy.Name()
}

// Len returns the number of stored entries.
func (c *Composed) Len() int { return c.length }

// RetrainStats implements index.RetrainReporter.
func (c *Composed) RetrainStats() (int64, int64) { return c.aside.RetrainStats() }

// SetRetrainPool implements index.AsyncRetrainer: subsequent leaf
// rebuilds run on p (nil: inline).
func (c *Composed) SetRetrainPool(p *retrain.Pool) { c.aside.SetPool(p) }

// DrainRetrains implements index.AsyncRetrainer: wait for the rebuilds
// in flight and install them, repeating until no install schedules
// further work. Writer timeline only.
func (c *Composed) DrainRetrains() { c.aside.Drain() }

// LeafCount returns the current leaf count.
func (c *Composed) LeafCount() int { return len(c.leaves) }

// install makes leaves, in key order, the whole leaf table and rebuilds
// the structure over them. Leaves must already be Prepare'd.
func (c *Composed) install(leaves []*Leaf) {
	c.leaves = leaves
	firsts := make([]uint64, len(leaves))
	var prev *Leaf
	for i, l := range leaves {
		l.id, firsts[i] = i, l.FirstKey
		link(prev, l)
		prev = l
	}
	link(prev, nil)
	c.structure.Build(firsts)
}

// link makes b the leaf after a in the chain (either may be the end).
func link(a, b *Leaf) {
	if a != nil {
		a.next = b
	}
	if b != nil {
		b.prev = a
	}
}

func (c *Composed) prepare(leaves []*Leaf) []*Leaf {
	for _, l := range leaves {
		c.strategy.Prepare(l)
	}
	return leaves
}

// BulkLoad builds the index over sorted distinct keys. A rebuild in
// flight no longer applies: its leaf has left the table.
func (c *Composed) BulkLoad(keys, values []uint64) error {
	c.aside.Reset()
	c.install(c.prepare(c.approx.Build(keys, values)))
	c.length = len(keys)
	return nil
}

// leafFor returns the leaf covering key.
func (c *Composed) leafFor(key uint64) *Leaf { return c.leaves[c.structure.Locate(key)] }

// Get returns the value stored under key.
func (c *Composed) Get(key uint64) (uint64, bool) {
	l := c.leafFor(key)
	if at, ok := l.find(key); ok {
		return l.Vals[at], true
	}
	if len(l.Buf.Keys) > 0 {
		if v, live, ok := l.Buf.Find(key); ok {
			return v, live
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
	c.aside.Install()
	return c.upsert(key, value, true), nil
}

// upsert is the write path shared by InsertReplace and op-log replay.
// counted is false during replay: the original write already adjusted
// length, and the replayed one re-applies it to the rebuilt leaves.
func (c *Composed) upsert(key, value uint64, counted bool) (existed bool) {
	l, due := c.leafFor(key), false
	if at, ok := l.find(key); ok {
		l.Vals[at] = value
		existed = true
	} else if i, ok := l.buffered(key); ok {
		existed = !l.Buf.Dead[i]
		l.Buf.Set(i, true, key, value, false)
	} else {
		l, due = c.insert(l, key, value)
	}
	if counted && !existed {
		c.length++
	}
	c.aside.Log(l, key, value, false)
	if due {
		c.scheduleRetrain(l) // after the log: the snapshot holds this write
	}
	return existed
}

// insert hands a key no leaf holds to the strategy and returns the leaf
// that took it, and whether that leaf is due for a rebuild. A leaf that
// refuses the key schedules its own rebuild without it, and the key goes
// to whichever leaf covers it then: a fresh one, or — while the rebuild is
// on the pool — the old leaf, which keeps absorbing writes. A leaf that
// refuses again (a gapped leaf with no free slot) is rebuilt on the spot
// with the key, which voids a rebuild of it still in flight. So is an
// empty leaf, which would come back empty without the key (the strategies
// that refuse keys never buffer, so NumKeys says so).
func (c *Composed) insert(l *Leaf, key, value uint64) (*Leaf, bool) {
	inFlight := c.aside.InFlight(l)
	ok, due := c.strategy.Insert(l, key, value, inFlight)
	if !ok && !inFlight && l.NumKeys > 0 {
		c.scheduleRetrain(l)
		l = c.leafFor(key)
		ok, due = c.strategy.Insert(l, key, value, c.aside.InFlight(l))
	}
	if !ok {
		c.aside.Forget(l)
		with := delta.Merge(delta.Run{Keys: []uint64{key}, Vals: []uint64{value}}, l.snapshot(), false)
		start := time.Now()
		repl := c.rebuild(with)
		c.aside.Count(start)
		c.swap(l, repl)
		return c.leafFor(key), false
	}
	return l, due
}

// rebuild runs the retrain policy over a leaf's snapshot: the one place a
// leaf is rebuilt, on the pool or on the writer.
func (c *Composed) rebuild(r delta.Run) []*Leaf {
	return c.prepare(c.policy.Retrain(c.approx, r.Keys, r.Vals))
}

// scheduleRetrain snapshots l and builds its rebuild aside, unless one is
// in flight; a nil pool runs it inline, so the rebuild is installed on
// return.
func (c *Composed) scheduleRetrain(l *Leaf) {
	if c.aside.InFlight(l) {
		return
	}
	snap := l.snapshot()
	c.aside.Submit(l, func() []*Leaf { return c.rebuild(snap) })
}

// apply swaps a finished rebuild in for old and replays the writes that
// hit old meanwhile.
func (c *Composed) apply(old *Leaf, leaves []*Leaf, log []retrain.Op) {
	c.swap(old, leaves)
	for _, op := range log {
		if op.Del {
			c.del(op.Key, false)
		} else {
			c.upsert(op.Key, op.Val, false)
		}
	}
}

// swap replaces old by its rebuilt leaves. The B+tree swaps old's first
// key for theirs: the first replacement takes old's id (so the leftmost
// leaf keeps id 0) and the others append. A static structure is rebuilt
// over the spliced leaf list.
func (c *Composed) swap(old *Leaf, repl []*Leaf) {
	bt, ok := c.structure.(*BTreeTop)
	if !ok {
		next := make([]*Leaf, 0, len(c.leaves)+len(repl)-1)
		next = append(next, c.leaves[:old.id]...)
		next = append(next, repl...)
		c.install(append(next, c.leaves[old.id+1:]...))
		return
	}
	prev := old.prev
	for i, l := range repl {
		l.id = old.id
		if i > 0 {
			l.id = len(c.leaves)
			c.leaves = append(c.leaves, nil)
		}
		c.leaves[l.id] = l
		link(prev, l)
		prev = l
	}
	link(prev, old.next)
	bt.replace(old.FirstKey, repl)
}

// Delete removes key and reports whether it was present.
func (c *Composed) Delete(key uint64) bool {
	c.aside.Install()
	return c.del(key, true)
}

// del is the removal path shared by Delete and op-log replay.
func (c *Composed) del(key uint64, counted bool) bool {
	l := c.leafFor(key)
	if at, ok := l.find(key); ok {
		if l.Occ != nil {
			g := l.gapped()
			g.Remove(at)
			l.NumKeys = g.NumKeys
		} else {
			copy(l.Keys[at:], l.Keys[at+1:])
			copy(l.Vals[at:], l.Vals[at+1:])
			l.Keys = l.Keys[:len(l.Keys)-1]
			l.Vals = l.Vals[:len(l.Vals)-1]
			l.NumKeys--
			l.MaxErr++
		}
	} else if i, ok := l.buffered(key); ok && !l.Buf.Dead[i] {
		l.Buf.Set(i, true, key, 0, true)
	} else {
		return false
	}
	if counted {
		c.length--
	}
	c.aside.Log(l, key, 0, true)
	return true
}

// cursor streams the leaves in key order, draining each with a
// two-pointer merge of its (possibly gapped) base array and its side
// buffer, tombstones skipped.
type cursor struct {
	l    *Leaf
	i, j int // next base slot / buffer slot of l
}

var cursorPool = sync.Pool{New: func() any { return new(cursor) }}

// Range implements index.Ranger: the structure piece locates the leaf
// covering start and both its runs are lower-bounded on start (a gapped
// array is sorted with duplicates, its gaps copying their left
// neighbour); every later leaf in the chain starts above start. No
// mutation while the cursor is open.
func (c *Composed) Range(start uint64) index.Cursor {
	l := c.leafFor(start)
	cur := cursorPool.Get().(*cursor)
	*cur = cursor{l: l, i: search.LowerBound(l.Keys, start, 0, len(l.Keys)), j: search.LowerBound(l.Buf.Keys, start, 0, len(l.Buf.Keys))}
	return cur
}

// Next fills the destination slices with the next entries in key order.
func (cur *cursor) Next(keys, vals []uint64) int {
	n := 0
	for n < len(keys) && cur.l != nil {
		l, buf := cur.l, &cur.l.Buf
		if l.Occ != nil {
			cur.i = l.Occ.NextSet(cur.i, len(l.Keys)) // step over the gap run
		}
		inBase, inBuf := cur.i < len(l.Keys), cur.j < len(buf.Keys)
		switch {
		case inBuf && (!inBase || buf.Keys[cur.j] < l.Keys[cur.i]):
			if !buf.Dead[cur.j] {
				keys[n], vals[n] = buf.Keys[cur.j], buf.Vals[cur.j]
				n++
			}
			cur.j++
		case inBase:
			keys[n], vals[n] = l.Keys[cur.i], l.Vals[cur.i]
			n++
			cur.i++
		default:
			cur.l, cur.i, cur.j = l.next, 0, 0
		}
	}
	return n
}

func (cur *cursor) Close() {
	cur.l = nil
	cursorPool.Put(cur)
}

// AvgDepth implements index.DepthReporter via the structure piece.
func (c *Composed) AvgDepth() float64 { return c.structure.Depth() }

// Sizes implements index.Index: a tombstone flag counts one byte of
// structure.
func (c *Composed) Sizes() index.Sizes {
	st := c.structure.SizeBytes() + int64(len(c.leaves))*64
	var kb, vb int64
	for _, l := range c.leaves {
		st += int64(len(l.Buf.Dead))
		kb += int64(cap(l.Keys)+len(l.Buf.Keys)) * 8
		vb += int64(cap(l.Vals)+len(l.Buf.Vals)) * 8
	}
	return index.Sizes{Structure: st, Keys: kb, Values: vb}
}
