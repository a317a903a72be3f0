// Package skiplist implements a classic skiplist (as in LevelDB's
// memtable), one of the paper's traditional ordered baselines. Tower
// heights come from a deterministic xorshift generator so runs are
// reproducible.
package skiplist

import (
	"sync"

	"learnedpieces/internal/index"
)

const (
	maxLevel = 24
	// branching factor 4: P(level k+1 | level k) = 1/4.
	branchMask = 3
)

type node struct {
	key, val uint64
	next     []*node
}

// List is a skiplist mapping uint64 keys to uint64 values. Not safe for
// concurrent mutation; concurrent reads are safe between mutations.
type List struct {
	head   *node
	level  int
	length int
	rng    uint64
}

// New returns an empty skiplist.
func New() *List {
	return &List{
		head:  &node{next: make([]*node, maxLevel)},
		level: 1,
		rng:   0x9E3779B97F4A7C15,
	}
}

// Name implements index.Index.
func (l *List) Name() string { return "skiplist" }

// Len returns the number of stored entries.
func (l *List) Len() int { return l.length }

func (l *List) randLevel() int {
	lvl := 1
	for lvl < maxLevel {
		l.rng ^= l.rng << 13
		l.rng ^= l.rng >> 7
		l.rng ^= l.rng << 17
		if l.rng&branchMask != 0 {
			break
		}
		lvl++
	}
	return lvl
}

// findPrev fills prev[i] with the rightmost node at level i whose key is
// < key, and returns the candidate node (prev[0].next[0]).
func (l *List) findPrev(key uint64, prev []*node) *node {
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
		}
		if prev != nil {
			prev[i] = x
		}
	}
	return x.next[0]
}

// Get returns the value stored under key.
func (l *List) Get(key uint64) (uint64, bool) {
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
		}
	}
	n := x.next[0]
	if n != nil && n.key == key {
		return n.val, true
	}
	return 0, false
}

// Insert stores value under key, replacing any existing value.
func (l *List) Insert(key, value uint64) error {
	_, err := l.InsertReplace(key, value)
	return err
}

// InsertReplace implements index.Upserter: the predecessor search that
// finds the splice point finds an existing node too.
func (l *List) InsertReplace(key, value uint64) (bool, error) {
	var prev [maxLevel]*node
	for i := range prev {
		prev[i] = l.head
	}
	n := l.findPrev(key, prev[:])
	if n != nil && n.key == key {
		n.val = value
		return true, nil
	}
	lvl := l.randLevel()
	if lvl > l.level {
		l.level = lvl
	}
	nn := &node{key: key, val: value, next: make([]*node, lvl)}
	for i := 0; i < lvl; i++ {
		nn.next[i] = prev[i].next[i]
		prev[i].next[i] = nn
	}
	l.length++
	return false, nil
}

// Delete removes key and reports whether it was present.
func (l *List) Delete(key uint64) bool {
	var prev [maxLevel]*node
	for i := range prev {
		prev[i] = l.head
	}
	n := l.findPrev(key, prev[:])
	if n == nil || n.key != key {
		return false
	}
	for i := 0; i < len(n.next); i++ {
		if prev[i].next[i] == n {
			prev[i].next[i] = n.next[i]
		}
	}
	l.length--
	return true
}

// cursor streams the level-0 linked list from a positioned node. The
// tower descent happens once in Range; every Next is a plain pointer
// walk, which is exactly the access pattern the skiplist was built for.
type cursor struct {
	x *node
}

var cursorPool = sync.Pool{New: func() any { return new(cursor) }}

// Range implements index.Ranger: one findPrev descent positions at the
// first node with key >= start, then Next follows next[0] links. No
// mutation while the cursor is open.
func (l *List) Range(start uint64) index.Cursor {
	c := cursorPool.Get().(*cursor)
	c.x = l.findPrev(start, nil)
	return c
}

// Next fills the destination slices from the level-0 walk.
//
//pieces:hotpath
func (c *cursor) Next(keys, vals []uint64) int {
	n := 0
	x := c.x
	for n < len(keys) && x != nil {
		keys[n] = x.key
		vals[n] = x.val
		x = x.next[0]
		n++
	}
	c.x = x
	return n
}

func (c *cursor) Close() {
	c.x = nil
	cursorPool.Put(c)
}

// BulkLoad inserts sorted keys; the skiplist has no special build path,
// matching its role as a plain dynamic baseline.
func (l *List) BulkLoad(keys, values []uint64) error {
	for i, k := range keys {
		var v uint64
		if values != nil {
			v = values[i]
		}
		if err := l.Insert(k, v); err != nil {
			return err
		}
	}
	return nil
}

// Sizes reports the memory footprint: towers are structure, entries are
// key/value storage.
func (l *List) Sizes() index.Sizes {
	// Expected tower height with branching 4 is 4/3 pointers per node.
	towerBytes := int64(l.length) * 8 * 4 / 3
	nodeHdr := int64(l.length) * 24 // slice header per node
	return index.Sizes{
		Structure: towerBytes + nodeHdr,
		Keys:      int64(l.length) * 8,
		Values:    int64(l.length) * 8,
	}
}
