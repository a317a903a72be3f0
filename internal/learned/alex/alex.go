// Package alex implements ALEX (Ding et al.): an adaptive learned index
// with an asymmetric tree of linear-model inner nodes over gapped-array
// data nodes.
//
// The design dimensions the paper attributes to ALEX (Table I):
//
//   - Approximation algorithm: LSA+gap — data nodes place keys at their
//     model-predicted slots inside an array larger than the key count
//     (internal/pla BuildLSAGap), actively reshaping the stored CDF.
//   - Index structure: asymmetric tree (ATS) — dense key regions recurse
//     into deeper subtrees while sparse regions attach data nodes
//     directly under the root, so the average depth stays near 1.
//   - Insertion: model-based in-place insert into a gap, shifting at most
//     the short run of keys between the target and the nearest gap.
//   - Retraining: when a data node exceeds its density bound it is either
//     expanded (rebuilt at lower density with a retrained model) or split
//     (sideways when it owns several parent slots, downward into a new
//     subtree otherwise). An expand is built aside through
//     retrain.Aside — on the pool when one is attached — while the node
//     stays writable; a full node is expanded or split on the spot.
package alex

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"learnedpieces/internal/index"
	"learnedpieces/internal/pla"
	"learnedpieces/internal/retrain"
)

// Config controls node sizing. Data nodes are built, expanded and rebuilt
// at ALEX's density bounds (pla.BuildDensity, pla.ExpandDensity,
// pla.RebuildDensity).
type Config struct {
	// MaxLeafKeys is the split threshold for data nodes; <= 0 picks 4096.
	MaxLeafKeys int
	// MaxFanout bounds inner-node children; <= 0 picks 256.
	MaxFanout int
}

// DefaultConfig returns the configuration used by the benchmarks.
func DefaultConfig() Config { return Config{} }

func (c *Config) normalize() {
	if c.MaxLeafKeys <= 0 {
		c.MaxLeafKeys = 4096
	}
	if c.MaxFanout <= 0 {
		c.MaxFanout = 256
	}
}

type innerNode struct {
	pla.Model               // key -> child slot
	children  []interface{} // *innerNode or *dataNode; repeats allowed
}

type dataNode struct {
	g          *pla.GappedNode
	next, prev *dataNode
}

// Index is the ALEX index.
type Index struct {
	cfg    Config
	root   interface{}
	head   *dataNode // leftmost data node, for scans
	length int

	// aside builds a dense node's expand from a foreground snapshot —
	// on the pool when one is attached (index.AsyncRetrainer) — and
	// installs it on the writer's timeline, replaying the writes the
	// node took meanwhile. Splits keep running on the inserting
	// goroutine: they restructure the tree through the descent path,
	// which a background goroutine must not touch.
	aside   retrain.Aside[*dataNode, *pla.GappedNode]
	expands atomic.Int64
	splits  atomic.Int64
	// work counts what the gap inserts did, in slots. Plain ints on the
	// writer's timeline, like length.
	work pla.InsertWork
}

// New returns an empty ALEX index.
func New(cfg Config) *Index {
	cfg.normalize()
	ix := &Index{cfg: cfg}
	ix.aside.Init(ix.install)
	ix.setRoot(ix.newDataNode(nil, nil))
	return ix
}

// Name implements index.Index.
func (ix *Index) Name() string { return "alex" }

// Len returns the number of stored entries.
func (ix *Index) Len() int { return ix.length }

// RetrainStats implements index.RetrainReporter.
func (ix *Index) RetrainStats() (int64, int64) { return ix.aside.RetrainStats() }

// ExpandSplitCounts reports the two retraining actions separately.
func (ix *Index) ExpandSplitCounts() (expands, splits int64) {
	return ix.expands.Load(), ix.splits.Load()
}

// InsertWork reports what the foreground half of the inserts cost, in
// slots searched and shifted: the Put tail as exact work instead of a
// timing. Like writes, it must be called from the writer's timeline.
func (ix *Index) InsertWork() pla.InsertWork { return ix.work }

// SetRetrainPool implements index.AsyncRetrainer: subsequent node
// expands rebuild their gapped arrays on the pool.
func (ix *Index) SetRetrainPool(p *retrain.Pool) { ix.aside.SetPool(p) }

// DrainRetrains implements index.AsyncRetrainer: wait for in-flight
// expands and install them. Must run on the writer timeline.
func (ix *Index) DrainRetrains() { ix.aside.Drain() }

func (ix *Index) setRoot(n interface{}) {
	ix.root = n
	ix.head = leftmost(n)
}

func leftmost(n interface{}) *dataNode {
	for {
		switch x := n.(type) {
		case *innerNode:
			n = x.children[0]
		case *dataNode:
			return x
		}
	}
}

func (ix *Index) newDataNode(keys, vals []uint64) *dataNode {
	return &dataNode{g: pla.BuildLSAGap(keys, vals, pla.BuildDensity)}
}

// BulkLoad builds the asymmetric tree over sorted distinct keys.
func (ix *Index) BulkLoad(keys, values []uint64) error {
	ix.aside.Reset() // expands in flight target nodes that no longer exist
	ix.length = len(keys)
	if values == nil {
		values = make([]uint64, len(keys))
	}
	var prev *dataNode
	root := ix.build(keys, values, &prev)
	ix.setRoot(root)
	return nil
}

// build recursively constructs the tree, threading the leaf chain.
func (ix *Index) build(keys, vals []uint64, prev **dataNode) interface{} {
	if len(keys) > ix.cfg.MaxLeafKeys {
		fanout := 2
		for fanout < ix.cfg.MaxFanout && len(keys)/fanout > ix.cfg.MaxLeafKeys/2 {
			fanout *= 2
		}
		// Not ok only when float rounding defeated even the 2-way split
		// (pathological key spacing): one oversized data node, which a
		// later retrain revisits.
		if m, bounds, ok := pla.FitRouter(keys, 0, len(keys), fanout); ok {
			return ix.buildInner(m, bounds, keys, vals, prev)
		}
	}
	d := ix.newDataNode(keys, vals)
	d.prev = *prev
	if *prev != nil {
		(*prev).next = d
	}
	*prev = d
	return d
}

// buildInner builds the children of an inner node routed by m, child s
// over keys[bounds[s]:bounds[s+1]].
func (ix *Index) buildInner(m pla.Model, bounds []int, keys, vals []uint64, prev **dataNode) *innerNode {
	in := &innerNode{Model: m, children: make([]interface{}, len(bounds)-1)}
	fanout := len(in.children)
	for s := 0; s < fanout; s++ {
		lo, hi := bounds[s], bounds[s+1]
		if lo == hi {
			// Empty slot: point at the child that will receive keys mapping
			// here; defer to a shared empty data node created lazily below.
			continue
		}
		in.children[s] = ix.build(keys[lo:hi], vals[lo:hi], prev)
	}
	// Fill empty slots: share the nearest child to the left (so lookups
	// landing there find the node whose range precedes the key), or the
	// first non-empty child for leading empties.
	var last interface{}
	for s := 0; s < fanout; s++ {
		if in.children[s] != nil {
			last = in.children[s]
			break
		}
	}
	for s := 0; s < fanout; s++ {
		if in.children[s] == nil {
			in.children[s] = last
		} else {
			last = in.children[s]
		}
	}
	return in
}

// parentSlot is where a descent left the inner nodes: the data node's
// parent and the child slot taken (in == nil when the root is the data
// node). It is all a split reads of the route, and a plain value, so a
// write's descent allocates nothing.
type parentSlot struct {
	in   *innerNode
	slot int
}

// descend walks to the data node covering key without recording the
// route — the read-path variant, free of path bookkeeping.
func (ix *Index) descend(key uint64) *dataNode {
	n := ix.root
	for {
		switch x := n.(type) {
		case *innerNode:
			n = x.children[x.Predict(key, len(x.children))]
		case *dataNode:
			return x
		}
	}
}

// descendParent is descend for mutators: it also reports where the
// data node hangs, for split handling.
func (ix *Index) descendParent(key uint64) (*dataNode, parentSlot) {
	n := ix.root
	var p parentSlot
	for {
		switch x := n.(type) {
		case *innerNode:
			p = parentSlot{x, x.Predict(key, len(x.children))}
			n = x.children[p.slot]
		case *dataNode:
			return x, p
		}
	}
}

// Get returns the value stored under key.
func (ix *Index) Get(key uint64) (uint64, bool) {
	d := ix.descend(key)
	slot, ok := d.g.SlotOf(key)
	if !ok {
		return 0, false
	}
	return d.g.Values[slot], true
}

// GetBatch implements index.BatchGetter. ALEX's depth is variable per
// key (most data nodes hang directly under the root), so the lockstep
// rounds advance each still-descending lane by one inner-node step
// until every lane reached its data node; the per-node gapped-array
// searches then run per lane (each is an exponential search from that
// node's own model, already window-tight).
func (ix *Index) GetBatch(keys []uint64, vals []uint64, found []bool) {
	for off := 0; off < len(keys); off += batchLanes {
		end := off + batchLanes
		if end > len(keys) {
			end = len(keys)
		}
		m := end - off
		var node [batchLanes]interface{}
		for l := 0; l < m; l++ {
			node[l] = ix.root
		}
		for {
			live := false
			for l := 0; l < m; l++ {
				if x, ok := node[l].(*innerNode); ok {
					node[l] = x.children[x.Predict(keys[off+l], len(x.children))]
					if _, inner := node[l].(*innerNode); inner {
						live = true
					}
				}
			}
			if !live {
				break
			}
		}
		for l := 0; l < m; l++ {
			d := node[l].(*dataNode)
			if slot, ok := d.g.SlotOf(keys[off+l]); ok {
				vals[off+l], found[off+l] = d.g.Values[slot], true
			} else {
				vals[off+l], found[off+l] = 0, false
			}
		}
	}
}

// batchLanes sizes GetBatch's lockstep descent groups.
const batchLanes = 16

// Insert stores value under key, replacing any existing value.
func (ix *Index) Insert(key, value uint64) error {
	_, err := ix.InsertReplace(key, value)
	return err
}

// InsertReplace implements index.Upserter. The model-based gap insertion
// and the existence answer both come from pla.GappedNode.InsertReplace,
// one search of one node; this method handles the tree plumbing: the
// descent, density-triggered retraining, and retry after an expand or
// split made room.
func (ix *Index) InsertReplace(key, value uint64) (bool, error) {
	ix.aside.Install()
	for {
		d, parent := ix.descendParent(key)
		if d.g.Capacity() == 0 {
			*d.g = *pla.BuildLSAGap([]uint64{key}, []uint64{value}, pla.BuildDensity)
			ix.length++
			return false, nil
		}
		existed, ok := d.g.InsertReplace(key, value, &ix.work)
		if !ok {
			// Completely full: retrain (expand or split), then retry. This
			// runs inline even in async mode — the node has no gap left, so
			// the next attempt needs the new array now.
			ix.retrain(d, parent)
			continue
		}
		ix.aside.Log(d, key, value, false)
		if !existed {
			ix.length++
			if float64(d.g.NumKeys)/float64(d.g.Capacity()) >= pla.ExpandDensity {
				ix.maybeRetrain(d, parent)
			}
		}
		return existed, nil
	}
}

// maybeRetrain routes a density-triggered retrain: a node past the split
// threshold splits on the spot, any other has its expand built aside from
// a snapshot (inline when no pool is attached) unless one is in flight.
func (ix *Index) maybeRetrain(d *dataNode, parent parentSlot) {
	switch {
	case ix.aside.InFlight(d): // its expand will make room
	case d.g.NumKeys > ix.cfg.MaxLeafKeys:
		ix.retrain(d, parent)
	default:
		keys, vals := snapshotNode(d.g)
		ix.aside.Submit(d, func() *pla.GappedNode { return ix.expand(keys, vals) })
	}
}

// expand builds a data node's replacement from a snapshot of its live
// entries (snapshotNode) at ALEX's lower density bound, pla.RebuildDensity,
// with a fresh model.
// It is the one expand: the pool task, the on-the-spot expand of a full
// node and the expand on replay all run it.
func (ix *Index) expand(keys, vals []uint64) *pla.GappedNode {
	ix.expands.Add(1)
	return pla.BuildLSAGap(keys, vals, pla.RebuildDensity)
}

// install swaps a finished expand in for d and replays the writes d took
// meanwhile.
func (ix *Index) install(d *dataNode, g *pla.GappedNode, log []retrain.Op) {
	d.g = g
	for _, op := range log {
		ix.replay(d, op)
	}
}

// replay applies one op-logged write to a freshly installed array. The
// array was built at pla.RebuildDensity from a snapshot taken moments ago, so
// finding it full is rare; when it happens the node is expanded on the
// spot first (oversized nodes are split by the next foreground trigger).
// The foreground already counted this write's work on the array it
// replaced.
func (ix *Index) replay(d *dataNode, op retrain.Op) {
	if op.Del {
		if slot, ok := d.g.SlotOf(op.Key); ok {
			d.g.Remove(slot)
		}
		return
	}
	if _, ok := d.g.InsertReplace(op.Key, op.Val, nil); ok {
		return
	}
	start := time.Now()
	d.g = ix.expand(snapshotNode(d.g))
	ix.aside.Count(start)
	d.g.InsertReplace(op.Key, op.Val, nil)
}

// snapshotNode copies a gapped node's live entries in key order: what an
// expand builds from (on the pool while the node keeps taking writes), and
// what a split partitions.
func snapshotNode(g *pla.GappedNode) (keys, vals []uint64) {
	keys = make([]uint64, 0, g.NumKeys)
	vals = make([]uint64, 0, g.NumKeys)
	n := g.Capacity()
	for i := g.Occ.NextSet(0, n); i < n; i = g.Occ.NextSet(i+1, n) {
		keys = append(keys, g.Keys[i])
		vals = append(vals, g.Values[i])
	}
	return keys, vals
}

// retrain expands or splits a data node on the spot. An expand of d in
// flight no longer applies: d's array holds the writes logged for it, or
// d leaves the tree.
func (ix *Index) retrain(d *dataNode, parent parentSlot) {
	defer ix.aside.Count(time.Now())
	ix.aside.Forget(d)
	keys, vals := snapshotNode(d.g)
	if len(keys) <= ix.cfg.MaxLeafKeys {
		d.g = ix.expand(keys, vals)
		return
	}
	ix.split(d, keys, vals, parent)
	ix.splits.Add(1)
}

// split divides an over-full data node. When the node owns more than one
// slot in its parent, the slot range is halved at the model boundary
// (sideways split); otherwise a new subtree replaces it (downward split,
// which is what makes the tree asymmetric).
func (ix *Index) split(d *dataNode, keys, vals []uint64, pe parentSlot) {
	if pe.in == nil {
		// The root is the data node: grow a tree above it.
		prev := d.prev
		sub := ix.build(keys, vals, &prev)
		relinkTail(prev, d.next)
		ix.setRoot(sub)
		return
	}
	lo, hi := pe.slot, pe.slot+1
	for lo > 0 && pe.in.children[lo-1] == d {
		lo--
	}
	for hi < len(pe.in.children) && pe.in.children[hi] == d {
		hi++
	}
	// The sideways cut must agree exactly with the parent's child mapping:
	// keys the model sends to slots < mid go left.
	mid := (lo + hi) / 2
	cut := sort.Search(len(keys), func(i int) bool { return pe.in.Predict(keys[i], len(pe.in.children)) >= mid })
	if hi-lo < 2 || cut == 0 || cut == len(keys) {
		// Downward split: build a subtree over this node's keys. (Also taken
		// when the model maps every key to one half, where a sideways split
		// would make no progress.)
		prev := d.prev
		sub := ix.build(keys, vals, &prev)
		relinkTail(prev, d.next)
		for s := lo; s < hi; s++ {
			pe.in.children[s] = sub
		}
		if ix.head == d {
			ix.head = leftmost(sub)
		}
		return
	}
	left := ix.newDataNode(keys[:cut], vals[:cut])
	right := ix.newDataNode(keys[cut:], vals[cut:])
	left.prev = d.prev
	if d.prev != nil {
		d.prev.next = left
	}
	left.next = right
	right.prev = left
	right.next = d.next
	if d.next != nil {
		d.next.prev = right
	}
	for s := lo; s < mid; s++ {
		pe.in.children[s] = left
	}
	for s := mid; s < hi; s++ {
		pe.in.children[s] = right
	}
	if ix.head == d {
		ix.head = left
	}
}

// relinkTail connects the last node of a freshly built chain to the old
// successor.
func relinkTail(tail, next *dataNode) {
	if tail != nil {
		tail.next = next
	}
	if next != nil {
		next.prev = tail
	}
}

// Delete removes key and reports whether it was present. Nodes are not
// contracted (ALEX's lower-density contraction is omitted; gaps left by
// deletes are reused by later inserts).
func (ix *Index) Delete(key uint64) bool {
	ix.aside.Install()
	d := ix.descend(key)
	slot, ok := d.g.SlotOf(key)
	if !ok {
		return false
	}
	d.g.Remove(slot)
	ix.length--
	ix.aside.Log(d, key, 0, true)
	return true
}

// lastKey returns the largest live key of a node, 0 when it holds none.
func lastKey(d *dataNode) uint64 {
	if i := d.g.SeekLE(^uint64(0)); i >= 0 {
		return d.g.Keys[i]
	}
	return 0
}

// cursor streams the data-node chain slot-sequentially.
type cursor struct {
	d *dataNode
	i int
}

var cursorPool = sync.Pool{New: func() any { return new(cursor) }}

// Range implements index.Ranger: one model descent locates the data
// node and the node's own model seeks the first slot, as a Get would;
// the pooled cursor then walks the gapped arrays from there.
func (ix *Index) Range(start uint64) index.Cursor {
	d := ix.descend(start)
	// The model may land us one node ahead of the true successor chain
	// position; back up while the previous node could contain >= start.
	for d.prev != nil && lastKey(d.prev) >= start {
		d = d.prev
	}
	c := cursorPool.Get().(*cursor)
	// The descent can also land early — on a node whose live keys are all
	// below start, or an emptied one: the successor is in a later node.
	for c.d = d; c.d != nil; c.d = c.d.next {
		if c.i = c.d.g.SeekGE(start); c.i < c.d.g.Capacity() {
			break
		}
	}
	return c
}

// Next fills the destination slices from the data-node chain.
//
//pieces:hotpath
func (c *cursor) Next(keys, vals []uint64) int {
	n := 0
	d, i := c.d, c.i
	for d != nil && n < len(keys) {
		m := d.g.Capacity()
		for n < len(keys) {
			if i = d.g.Occ.NextSet(i, m); i >= m {
				break
			}
			keys[n], vals[n] = d.g.Keys[i], d.g.Values[i]
			n++
			i++
		}
		if i >= m {
			d, i = d.next, 0
		}
	}
	c.d, c.i = d, i
	return n
}

func (c *cursor) Close() {
	c.d = nil
	cursorPool.Put(c)
}

// AvgDepth returns the key-weighted average number of inner nodes on the
// root->data-node path (Table II reports ~1.03 on YCSB).
func (ix *Index) AvgDepth() float64 {
	var sum, keys float64
	seen := make(map[*dataNode]bool)
	var walk func(n interface{}, depth int)
	walk = func(n interface{}, depth int) {
		switch x := n.(type) {
		case *innerNode:
			var last interface{}
			for _, c := range x.children {
				if c != last {
					walk(c, depth+1)
					last = c
				}
			}
		case *dataNode:
			if seen[x] {
				return
			}
			seen[x] = true
			sum += float64(depth) * float64(x.g.NumKeys)
			keys += float64(x.g.NumKeys)
		}
	}
	walk(ix.root, 0)
	if keys == 0 {
		return 0
	}
	return sum / keys
}

// LeafCount returns the number of data nodes.
func (ix *Index) LeafCount() int {
	n := 0
	for d := ix.head; d != nil; d = d.next {
		n++
	}
	return n
}

// Sizes reports the footprint. ALEX's structure is tiny (Table III lists
// 129KB for 200M keys) because data-node models and occupancy maps are
// the only per-leaf metadata; the gapped arrays dominate and are charged
// to keys/values, gap slots included. The occupancy map is charged at the
// words it holds: one bit per slot.
func (ix *Index) Sizes() index.Sizes {
	var structure, slots int64
	var walk func(n interface{})
	seen := make(map[*dataNode]bool)
	walk = func(n interface{}) {
		switch x := n.(type) {
		case *innerNode:
			structure += int64(len(x.children))*16 + 48
			var last interface{}
			for _, c := range x.children {
				if c != last {
					walk(c)
					last = c
				}
			}
		case *dataNode:
			if seen[x] {
				return
			}
			seen[x] = true
			structure += 48 + int64(len(x.g.Occ))*8 // model + occupancy words
			slots += int64(x.g.Capacity())
		}
	}
	walk(ix.root)
	return index.Sizes{Structure: structure, Keys: slots * 8, Values: slots * 8}
}
