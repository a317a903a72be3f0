// Package lipp implements a LIPP-style learned index (Wu et al.,
// VLDB'21: "Updatable Learned Index with Precise Positions") — the
// design the paper's §V-B1 identifies as the realisation of its own
// advice (combine an asymmetric structure with a gap-making
// approximation algorithm) but could not evaluate because LIPP was not
// open source at the time. This package makes that evaluation possible.
//
// The core idea: every key sits exactly at its model-predicted slot —
// *precise positions*, no final search at all. Each node is a linear
// model over a slot array whose entries are either empty, a data entry,
// or a child node; keys whose predictions collide are pushed into a
// child node with its own (finer) model. Lookups follow predictions
// only; inserts place into an empty slot or grow a child at the
// conflict; subtrees whose conflict ratio grows too high are rebuilt
// (the retraining strategy).
package lipp

import (
	"sync"
	"sync/atomic"
	"time"

	"learnedpieces/internal/index"
	"learnedpieces/internal/pla"
)

// Config controls node sizing and rebuild triggers.
type Config struct {
	// GapFactor scales node capacity relative to the key count; <= 1
	// picks 1.5 (the gaps that keep conflicts rare).
	GapFactor float64
	// MinCapacity is the smallest node slot count; <= 0 picks 8.
	MinCapacity int
	// ConflictRatio triggers a subtree rebuild when the conflicts created
	// since the last build exceed ratio*keys; <= 0 picks 0.25.
	ConflictRatio float64
}

// DefaultConfig returns the configuration used by the benchmarks.
func DefaultConfig() Config { return Config{} }

func (c *Config) normalize() {
	if c.GapFactor <= 1 {
		c.GapFactor = 1.5
	}
	if c.MinCapacity <= 0 {
		c.MinCapacity = 8
	}
	if c.ConflictRatio <= 0 {
		c.ConflictRatio = 0.25
	}
}

type entryKind uint8

const (
	entryEmpty entryKind = iota
	entryData
	entryChild
)

type entry struct {
	kind  entryKind
	key   uint64
	val   uint64
	child *node
}

type node struct {
	pla.Model // key -> entry
	entries   []entry
	// keysAtBuild and conflicts drive the rebuild trigger.
	keysAtBuild int
	conflicts   int
}

func (nd *node) slot(key uint64) int { return nd.Predict(key, len(nd.entries)) }

// Index is the LIPP-style index.
type Index struct {
	cfg    Config
	root   *node
	length int

	retrains  atomic.Int64
	retrainNs atomic.Int64
}

// New returns an empty index.
func New(cfg Config) *Index {
	cfg.normalize()
	ix := &Index{cfg: cfg}
	ix.root = ix.build(nil, nil)
	return ix
}

// Name implements index.Index.
func (ix *Index) Name() string { return "lipp" }

// Len returns the number of stored entries.
func (ix *Index) Len() int { return ix.length }

// RetrainStats implements index.RetrainReporter.
func (ix *Index) RetrainStats() (int64, int64) { return ix.retrains.Load(), ix.retrainNs.Load() }

// BulkLoad builds the tree over sorted distinct keys.
func (ix *Index) BulkLoad(keys, values []uint64) error {
	if values == nil {
		values = make([]uint64, len(keys))
	}
	ix.root = ix.build(keys, values)
	ix.length = len(keys)
	return nil
}

// build constructs a node over sorted keys; conflicting groups become
// child nodes, recursively (LIPP's FMCD construction, simplified to a
// least-squares model over a gapped capacity).
func (ix *Index) build(keys, vals []uint64) *node {
	n := len(keys)
	capacity := int(float64(n)*ix.cfg.GapFactor) + 1
	if capacity < ix.cfg.MinCapacity {
		capacity = ix.cfg.MinCapacity
	}
	nd := &node{entries: make([]entry, capacity), keysAtBuild: n}
	if n == 0 {
		return nd
	}
	fit := pla.FitLinear(keys, 0, n)
	scale := float64(capacity) / float64(n)
	nd.Model = pla.Model{FirstKey: keys[0], Slope: fit.Slope * scale, Intercept: fit.Local().Intercept * scale}
	if nd.Slope <= 0 && n > 1 {
		// Degenerate fit: spread endpoints linearly so grouping progresses.
		nd.Slope = float64(capacity-1) / float64(keys[n-1]-keys[0])
		nd.Intercept = 0
	}
	// A model that maps every key to one slot makes no progress; replace
	// it with the endpoint-spread model, which is guaranteed to separate
	// the first and last keys for capacity >= 3.
	if n > 1 && nd.slot(keys[0]) == nd.slot(keys[n-1]) {
		nd.Slope = float64(capacity-1) / float64(keys[n-1]-keys[0])
		nd.Intercept = 0
	}
	return ix.buildGrouped(nd, keys, vals)
}

// buildGrouped redoes the slot grouping after the model was replaced.
func (ix *Index) buildGrouped(nd *node, keys, vals []uint64) *node {
	n := len(keys)
	i := 0
	for i < n {
		s := nd.slot(keys[i])
		j := i + 1
		for j < n && nd.slot(keys[j]) == s {
			j++
		}
		if j-i == 1 {
			nd.entries[s] = entry{kind: entryData, key: keys[i], val: vals[i]}
		} else {
			nd.entries[s] = entry{kind: entryChild, child: ix.build(keys[i:j], vals[i:j])}
		}
		i = j
	}
	return nd
}

// Get returns the value stored under key: pure prediction-following, no
// local search (the "precise positions" property).
func (ix *Index) Get(key uint64) (uint64, bool) {
	nd := ix.root
	for {
		e := &nd.entries[nd.slot(key)]
		switch e.kind {
		case entryEmpty:
			return 0, false
		case entryData:
			if e.key == key {
				return e.val, true
			}
			return 0, false
		case entryChild:
			nd = e.child
		}
	}
}

// GetBatch implements index.BatchGetter. LIPP has no last-mile search
// to interleave — lookups are pure prediction-following — but the
// descents themselves are chains of dependent cache misses, so the
// lockstep rounds advance every unresolved lane one node per round and
// let the node loads of a round overlap.
func (ix *Index) GetBatch(keys []uint64, vals []uint64, found []bool) {
	const lanes = 16
	for off := 0; off < len(keys); off += lanes {
		end := off + lanes
		if end > len(keys) {
			end = len(keys)
		}
		m := end - off
		var nd [lanes]*node
		for l := 0; l < m; l++ {
			nd[l] = ix.root
			vals[off+l], found[off+l] = 0, false
		}
		live := m
		for live > 0 {
			live = 0
			for l := 0; l < m; l++ {
				cur := nd[l]
				if cur == nil {
					continue
				}
				key := keys[off+l]
				e := &cur.entries[cur.slot(key)]
				switch e.kind {
				case entryEmpty:
					nd[l] = nil
				case entryData:
					if e.key == key {
						vals[off+l], found[off+l] = e.val, true
					}
					nd[l] = nil
				case entryChild:
					nd[l] = e.child
					live++
				}
			}
		}
	}
}

// Insert stores value under key, replacing any existing value.
func (ix *Index) Insert(key, value uint64) error {
	_, err := ix.InsertReplace(key, value)
	return err
}

// InsertReplace implements index.Upserter: the precise-position descent
// ends on the key's own entry, an empty slot or a conflict.
func (ix *Index) InsertReplace(key, value uint64) (bool, error) {
	var path []*node
	nd := ix.root
	for {
		path = append(path, nd)
		s := nd.slot(key)
		e := &nd.entries[s]
		switch e.kind {
		case entryEmpty:
			*e = entry{kind: entryData, key: key, val: value}
			ix.length++
			ix.maybeRebuild(path)
			return false, nil
		case entryData:
			if e.key == key {
				e.val = value
				return true, nil
			}
			// Conflict: both keys move into a fresh child node.
			ka, va := e.key, e.val
			kb, vb := key, value
			if ka > kb {
				ka, kb = kb, ka
				va, vb = vb, va
			}
			child := ix.build([]uint64{ka, kb}, []uint64{va, vb})
			*e = entry{kind: entryChild, child: child}
			nd.conflicts++
			ix.length++
			ix.maybeRebuild(path)
			return false, nil
		case entryChild:
			nd = e.child
		}
	}
}

// maybeRebuild rebuilds the topmost subtree on the path whose conflict
// count exceeds the configured ratio of its keys — LIPP's adjustment
// strategy keeping paths short.
func (ix *Index) maybeRebuild(path []*node) {
	for _, nd := range path {
		threshold := int(ix.cfg.ConflictRatio*float64(nd.keysAtBuild)) + 8
		if nd.conflicts < threshold {
			continue
		}
		start := time.Now()
		keys := make([]uint64, 0, nd.keysAtBuild+nd.conflicts)
		vals := make([]uint64, 0, nd.keysAtBuild+nd.conflicts)
		collect(nd, func(k, v uint64) bool {
			keys = append(keys, k)
			vals = append(vals, v)
			return true
		})
		rebuilt := ix.build(keys, vals)
		*nd = *rebuilt
		ix.retrains.Add(1)
		ix.retrainNs.Add(time.Since(start).Nanoseconds())
		return
	}
}

// collect walks the subtree in key order.
func collect(nd *node, fn func(k, v uint64) bool) bool {
	for i := range nd.entries {
		e := &nd.entries[i]
		switch e.kind {
		case entryData:
			if !fn(e.key, e.val) {
				return false
			}
		case entryChild:
			if !collect(e.child, fn) {
				return false
			}
		}
	}
	return true
}

// Delete removes key and reports whether it was present. Child nodes are
// not collapsed; the slot simply empties.
func (ix *Index) Delete(key uint64) bool {
	nd := ix.root
	for {
		e := &nd.entries[nd.slot(key)]
		switch e.kind {
		case entryEmpty:
			return false
		case entryData:
			if e.key != key {
				return false
			}
			*e = entry{}
			ix.length--
			return true
		case entryChild:
			nd = e.child
		}
	}
}

// frame is one level of a cursor's explicit walk stack.
type frame struct {
	nd *node
	i  int
}

// cursor streams the tree through an explicit stack of (node, slot)
// frames. Slot order equals key order (monotone models), so the
// depth-first walk is the range; children are entered at their
// predicted slot for the range start, which prunes only keys below it:
// keys at slots below slot(start) are all < start, so short scans cost
// O(result + depth). The stack
// grows by append when the tree is deeper than the pooled capacity, so
// this cursor is deliberately not hotpath-marked.
type cursor struct {
	stack []frame
	start uint64
}

var cursorPool = sync.Pool{New: func() any {
	return &cursor{stack: make([]frame, 0, 32)}
}}

// Range implements index.Ranger: the root is entered at its predicted
// slot and the pooled cursor walks from there.
func (ix *Index) Range(start uint64) index.Cursor {
	c := cursorPool.Get().(*cursor)
	c.stack = append(c.stack[:0], frame{ix.root, ix.root.slot(start)})
	c.start = start
	return c
}

// Next fills the destination slices with the next in-order entries.
func (c *cursor) Next(keys, vals []uint64) int {
	n := 0
	for n < len(keys) && len(c.stack) > 0 {
		top := &c.stack[len(c.stack)-1]
		if top.i >= len(top.nd.entries) {
			c.stack = c.stack[:len(c.stack)-1]
			continue
		}
		e := &top.nd.entries[top.i]
		top.i++
		switch e.kind {
		case entryData:
			if e.key >= c.start {
				keys[n] = e.key
				vals[n] = e.val
				n++
				// Everything after the first emitted key passes the
				// filter; zero makes the comparison vacuous.
				c.start = 0
			}
		case entryChild:
			c.stack = append(c.stack, frame{e.child, e.child.slot(c.start)})
		}
	}
	return n
}

func (c *cursor) Close() {
	c.stack = c.stack[:0]
	cursorPool.Put(c)
}

// AvgDepth returns the key-weighted average node-path length.
func (ix *Index) AvgDepth() float64 {
	var sum, keys float64
	var walk func(nd *node, d float64)
	walk = func(nd *node, d float64) {
		for i := range nd.entries {
			switch nd.entries[i].kind {
			case entryData:
				sum += d
				keys++
			case entryChild:
				walk(nd.entries[i].child, d+1)
			}
		}
	}
	walk(ix.root, 1)
	if keys == 0 {
		return 0
	}
	return sum / keys
}

// NodeCount returns the number of model nodes.
func (ix *Index) NodeCount() int {
	count := 0
	var walk func(nd *node)
	walk = func(nd *node) {
		count++
		for i := range nd.entries {
			if nd.entries[i].kind == entryChild {
				walk(nd.entries[i].child)
			}
		}
	}
	walk(ix.root)
	return count
}

// Sizes reports the footprint: entry slots hold the keys and values, so
// unlike the other learned indexes LIPP has no separate sorted array.
func (ix *Index) Sizes() index.Sizes {
	var slots int64
	var nodes int64
	var walk func(nd *node)
	walk = func(nd *node) {
		nodes++
		slots += int64(len(nd.entries))
		for i := range nd.entries {
			if nd.entries[i].kind == entryChild {
				walk(nd.entries[i].child)
			}
		}
	}
	walk(ix.root)
	return index.Sizes{
		Structure: nodes*48 + slots, // models + per-slot kind tag
		Keys:      slots * 8,
		Values:    slots * 8,
	}
}
