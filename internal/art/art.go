// Package art implements an Adaptive Radix Tree (Leis et al.) over 8-byte
// big-endian keys: Node4/16/48/256 with path compression. In this
// repository it stands in for the paper's trie-family traditional
// baselines (Masstree, Wormhole, Bw-tree): an ordered index that descends
// by key bytes rather than by comparisons.
package art

import (
	"bytes"
	"encoding/binary"
	"sync"

	"learnedpieces/internal/index"
)

type leaf struct {
	key uint64
	val uint64
}

type header struct {
	prefix []byte // compressed path below the parent edge
	n      int    // child count
}

type node4 struct {
	header
	keys     [4]byte
	children [4]interface{}
}

type node16 struct {
	header
	keys     [16]byte
	children [16]interface{}
}

type node48 struct {
	header
	idx      [256]int8 // -1 = absent, else index into children
	children [48]interface{}
}

type node256 struct {
	header
	children [256]interface{}
}

// Tree is the adaptive radix tree. Not safe for concurrent mutation;
// concurrent reads are safe between mutations.
type Tree struct {
	root   interface{}
	length int
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Name implements index.Index.
func (t *Tree) Name() string { return "art" }

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.length }

func keyBytes(key uint64) [8]byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], key)
	return b
}

func hdr(n interface{}) *header {
	switch x := n.(type) {
	case *node4:
		return &x.header
	case *node16:
		return &x.header
	case *node48:
		return &x.header
	case *node256:
		return &x.header
	}
	return nil
}

func findChild(n interface{}, b byte) interface{} {
	switch x := n.(type) {
	case *node4:
		for i := 0; i < x.n; i++ {
			if x.keys[i] == b {
				return x.children[i]
			}
		}
	case *node16:
		for i := 0; i < x.n; i++ {
			if x.keys[i] == b {
				return x.children[i]
			}
		}
	case *node48:
		if i := x.idx[b]; i >= 0 {
			return x.children[i]
		}
	case *node256:
		return x.children[b]
	}
	return nil
}

// Get returns the value stored under key.
func (t *Tree) Get(key uint64) (uint64, bool) {
	kb := keyBytes(key)
	n := t.root
	depth := 0
	for n != nil {
		if l, ok := n.(*leaf); ok {
			if l.key == key {
				return l.val, true
			}
			return 0, false
		}
		h := hdr(n)
		if len(h.prefix) > 0 {
			if depth+len(h.prefix) > 8 || !bytes.Equal(h.prefix, kb[depth:depth+len(h.prefix)]) {
				return 0, false
			}
			depth += len(h.prefix)
		}
		if depth >= 8 {
			return 0, false
		}
		n = findChild(n, kb[depth])
		depth++
	}
	return 0, false
}

// Insert stores value under key, replacing any existing value.
func (t *Tree) Insert(key, value uint64) error {
	_, err := t.InsertReplace(key, value)
	return err
}

// InsertReplace implements index.Upserter: the descent either overwrote
// a leaf or added one, so the length says which.
func (t *Tree) InsertReplace(key, value uint64) (bool, error) {
	before := t.length
	t.root = t.insert(t.root, keyBytes(key), 0, key, value)
	return t.length == before, nil
}

func commonPrefixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func (t *Tree) insert(n interface{}, kb [8]byte, depth int, key, value uint64) interface{} {
	if n == nil {
		t.length++
		return &leaf{key: key, val: value}
	}
	if l, ok := n.(*leaf); ok {
		if l.key == key {
			l.val = value
			return l
		}
		// Split: create a node4 holding the common suffix path.
		ob := keyBytes(l.key)
		cp := commonPrefixLen(kb[depth:], ob[depth:])
		nn := &node4{}
		nn.prefix = append([]byte(nil), kb[depth:depth+cp]...)
		d := depth + cp
		addChild4(nn, ob[d], l)
		t.length++
		addChild4(nn, kb[d], &leaf{key: key, val: value})
		return nn
	}
	h := hdr(n)
	if len(h.prefix) > 0 {
		cp := commonPrefixLen(h.prefix, kb[depth:])
		if cp < len(h.prefix) {
			// Prefix mismatch: split the compressed path.
			nn := &node4{}
			nn.prefix = append([]byte(nil), h.prefix[:cp]...)
			oldByte := h.prefix[cp]
			h.prefix = append([]byte(nil), h.prefix[cp+1:]...)
			addChild4(nn, oldByte, n)
			t.length++
			addChild4(nn, kb[depth+cp], &leaf{key: key, val: value})
			return nn
		}
		depth += len(h.prefix)
	}
	c := findChild(n, kb[depth])
	if c != nil {
		nc := t.insert(c, kb, depth+1, key, value)
		if nc != c {
			replaceChild(n, kb[depth], nc)
		}
		return n
	}
	t.length++
	return addChild(n, kb[depth], &leaf{key: key, val: value})
}

func replaceChild(n interface{}, b byte, c interface{}) {
	switch x := n.(type) {
	case *node4:
		for i := 0; i < x.n; i++ {
			if x.keys[i] == b {
				x.children[i] = c
				return
			}
		}
	case *node16:
		for i := 0; i < x.n; i++ {
			if x.keys[i] == b {
				x.children[i] = c
				return
			}
		}
	case *node48:
		if i := x.idx[b]; i >= 0 {
			x.children[i] = c
		}
	case *node256:
		x.children[b] = c
	}
}

// addChild adds (b -> c), growing the node when full. Returns the node
// (possibly a larger replacement).
func addChild(n interface{}, b byte, c interface{}) interface{} {
	switch x := n.(type) {
	case *node4:
		if x.n < 4 {
			addChild4(x, b, c)
			return x
		}
		g := &node16{header: header{prefix: x.prefix, n: x.n}}
		copy(g.keys[:], x.keys[:x.n])
		copy(g.children[:], x.children[:x.n])
		return addChild(g, b, c)
	case *node16:
		if x.n < 16 {
			// Keep keys sorted for ordered scans.
			i := x.n
			for i > 0 && x.keys[i-1] > b {
				x.keys[i] = x.keys[i-1]
				x.children[i] = x.children[i-1]
				i--
			}
			x.keys[i] = b
			x.children[i] = c
			x.n++
			return x
		}
		g := &node48{header: header{prefix: x.prefix, n: 0}}
		for i := range g.idx {
			g.idx[i] = -1
		}
		for i := 0; i < x.n; i++ {
			g.idx[x.keys[i]] = int8(i)
			g.children[i] = x.children[i]
		}
		g.n = x.n
		return addChild(g, b, c)
	case *node48:
		if x.n < 48 {
			// A delete leaves its hole anywhere in children, so slot n
			// may be live: take the first free one.
			i := 0
			for x.children[i] != nil {
				i++
			}
			x.children[i] = c
			x.idx[b] = int8(i)
			x.n++
			return x
		}
		g := &node256{header: header{prefix: x.prefix, n: 0}}
		for kb := 0; kb < 256; kb++ {
			if i := x.idx[kb]; i >= 0 {
				g.children[kb] = x.children[i]
				g.n++
			}
		}
		return addChild(g, b, c)
	case *node256:
		if x.children[b] == nil {
			x.n++
		}
		x.children[b] = c
		return x
	}
	panic("art: addChild on leaf")
}

func addChild4(x *node4, b byte, c interface{}) {
	i := x.n
	for i > 0 && x.keys[i-1] > b {
		x.keys[i] = x.keys[i-1]
		x.children[i] = x.children[i-1]
		i--
	}
	x.keys[i] = b
	x.children[i] = c
	x.n++
}

// Delete removes key and reports whether it was present. Nodes are not
// shrunk back to smaller variants (lazy deletion), but a node left with
// zero children is removed.
func (t *Tree) Delete(key uint64) bool {
	ok := false
	t.root, ok = t.remove(t.root, keyBytes(key), 0, key)
	if ok {
		t.length--
	}
	return ok
}

func (t *Tree) remove(n interface{}, kb [8]byte, depth int, key uint64) (interface{}, bool) {
	if n == nil {
		return nil, false
	}
	if l, ok := n.(*leaf); ok {
		if l.key == key {
			return nil, true
		}
		return n, false
	}
	h := hdr(n)
	if len(h.prefix) > 0 {
		if depth+len(h.prefix) > 8 || !bytes.Equal(h.prefix, kb[depth:depth+len(h.prefix)]) {
			return n, false
		}
		depth += len(h.prefix)
	}
	c := findChild(n, kb[depth])
	if c == nil {
		return n, false
	}
	nc, ok := t.remove(c, kb, depth+1, key)
	if !ok {
		return n, false
	}
	if nc == nil {
		removeChild(n, kb[depth])
		if hdr(n).n == 0 {
			return nil, true
		}
	} else if nc != c {
		replaceChild(n, kb[depth], nc)
	}
	return n, true
}

func removeChild(n interface{}, b byte) {
	switch x := n.(type) {
	case *node4:
		for i := 0; i < x.n; i++ {
			if x.keys[i] == b {
				copy(x.keys[i:x.n-1], x.keys[i+1:x.n])
				copy(x.children[i:x.n-1], x.children[i+1:x.n])
				x.n--
				x.children[x.n] = nil
				return
			}
		}
	case *node16:
		for i := 0; i < x.n; i++ {
			if x.keys[i] == b {
				copy(x.keys[i:x.n-1], x.keys[i+1:x.n])
				copy(x.children[i:x.n-1], x.children[i+1:x.n])
				x.n--
				x.children[x.n] = nil
				return
			}
		}
	case *node48:
		if i := x.idx[b]; i >= 0 {
			x.children[i] = nil
			x.idx[b] = -1
			x.n--
		}
	case *node256:
		if x.children[b] != nil {
			x.children[b] = nil
			x.n--
		}
	}
}

// nextOccupied returns the first occupied slot >= s in nd's slot space
// and its child, or (-1, nil) when the node has no further children.
// Slot spaces differ by node kind: node4/16 index their sorted keys
// array, node48/256 use the byte value itself, so ascending slot order
// is ascending key-byte order for every kind.
func nextOccupied(nd interface{}, s int) (int, interface{}) {
	switch x := nd.(type) {
	case *node4:
		if s < x.n {
			return s, x.children[s]
		}
	case *node16:
		if s < x.n {
			return s, x.children[s]
		}
	case *node48:
		for ; s < 256; s++ {
			if i := x.idx[s]; i >= 0 {
				return s, x.children[i]
			}
		}
	case *node256:
		for ; s < 256; s++ {
			if x.children[s] != nil {
				return s, x.children[s]
			}
		}
	}
	return -1, nil
}

// lowerSlot returns the first occupied slot whose key byte is >= min,
// the byte at that slot, and the child there; slot -1 when every child
// byte is < min.
func lowerSlot(nd interface{}, min byte) (int, byte, interface{}) {
	switch x := nd.(type) {
	case *node4:
		for i := 0; i < x.n; i++ {
			if x.keys[i] >= min {
				return i, x.keys[i], x.children[i]
			}
		}
	case *node16:
		for i := 0; i < x.n; i++ {
			if x.keys[i] >= min {
				return i, x.keys[i], x.children[i]
			}
		}
	case *node48, *node256:
		if s, c := nextOccupied(nd, int(min)); s >= 0 {
			return s, byte(s), c
		}
	}
	return -1, 0, nil
}

// artFrame is one level of a cursor's explicit walk stack: the next
// slot to visit in nd.
type artFrame struct {
	nd interface{}
	s  int
}

// cursor streams the trie in key order through an explicit stack. The
// byte-descent in Range does all the start-boundary pruning, so every
// frame on the stack covers only keys >= start and Next never compares
// keys. Depth is bounded by the 8 key bytes, so the pooled stack
// capacity is never outgrown; the walk itself stays allocation-free.
type cursor struct {
	stack   []artFrame
	pk, pv  uint64
	pending bool
}

var cursorPool = sync.Pool{New: func() any {
	return &cursor{stack: make([]artFrame, 0, 16)}
}}

// Range implements index.Ranger: one bounded byte-descent positions the
// stack at the first entry with key >= start — subtrees entirely below
// start are pruned using the key bytes along the path, so short scans
// cost O(result + depth) — then Next walks depth-first. No mutation
// while the cursor is open.
func (t *Tree) Range(start uint64) index.Cursor {
	c := cursorPool.Get().(*cursor)
	c.stack = c.stack[:0]
	c.pending = false
	sb := keyBytes(start)
	nd := t.root
	depth := 0
	for nd != nil {
		if l, ok := nd.(*leaf); ok {
			if l.key >= start {
				c.pk, c.pv, c.pending = l.key, l.val, true
			}
			break
		}
		h := hdr(nd)
		cmp := 0
		for i := 0; i < len(h.prefix) && depth+i < 8; i++ {
			if h.prefix[i] != sb[depth+i] {
				cmp = -1
				if h.prefix[i] > sb[depth+i] {
					cmp = 1
				}
				break
			}
		}
		if cmp < 0 {
			// The compressed path precedes start: the entire subtree is
			// < start, and any siblings above it are already stacked.
			break
		}
		if cmp > 0 {
			// The path diverges above start: every key below is >= start.
			c.stack = append(c.stack, artFrame{nd, 0})
			break
		}
		depth += len(h.prefix)
		if depth >= 8 {
			c.stack = append(c.stack, artFrame{nd, 0})
			break
		}
		s, b, child := lowerSlot(nd, sb[depth])
		if s < 0 {
			break
		}
		if b > sb[depth] {
			c.stack = append(c.stack, artFrame{nd, s})
			break
		}
		// b == sb[depth]: descend the equal edge, stack its right siblings.
		c.stack = append(c.stack, artFrame{nd, s + 1})
		nd = child
		depth++
	}
	return c
}

// Next fills the destination slices with the next in-order entries. Not
// hotpath-marked: the DFS stack may grow past the pooled capacity on
// its first deep descent, and that one append is an allocation the
// analyzer cannot see is amortised across the cursor's pooled lifetime.
func (c *cursor) Next(keys, vals []uint64) int {
	n := 0
	if c.pending && len(keys) > 0 {
		keys[0], vals[0] = c.pk, c.pv
		c.pending = false
		n = 1
	}
	for n < len(keys) && len(c.stack) > 0 {
		top := &c.stack[len(c.stack)-1]
		s, child := nextOccupied(top.nd, top.s)
		if s < 0 {
			c.stack = c.stack[:len(c.stack)-1]
			continue
		}
		top.s = s + 1
		if l, ok := child.(*leaf); ok {
			keys[n] = l.key
			vals[n] = l.val
			n++
		} else {
			c.stack = append(c.stack, artFrame{child, 0})
		}
	}
	return n
}

func (c *cursor) Close() {
	c.stack = c.stack[:0]
	c.pending = false
	cursorPool.Put(c)
}

// BulkLoad inserts sorted keys one by one; tries build incrementally.
func (t *Tree) BulkLoad(keys, values []uint64) error {
	for i, k := range keys {
		var v uint64
		if values != nil {
			v = values[i]
		}
		if err := t.Insert(k, v); err != nil {
			return err
		}
	}
	return nil
}

// AvgDepth returns the mean number of internal nodes on root->leaf paths.
func (t *Tree) AvgDepth() float64 {
	var sum, leaves int64
	var walk func(n interface{}, d int64)
	walk = func(n interface{}, d int64) {
		if n == nil {
			return
		}
		if _, ok := n.(*leaf); ok {
			sum += d
			leaves++
			return
		}
		each(n, func(c interface{}) { walk(c, d+1) })
	}
	walk(t.root, 0)
	if leaves == 0 {
		return 0
	}
	return float64(sum) / float64(leaves)
}

func each(n interface{}, fn func(c interface{})) {
	switch x := n.(type) {
	case *node4:
		for i := 0; i < x.n; i++ {
			fn(x.children[i])
		}
	case *node16:
		for i := 0; i < x.n; i++ {
			fn(x.children[i])
		}
	case *node48:
		for b := 0; b < 256; b++ {
			if i := x.idx[b]; i >= 0 {
				fn(x.children[i])
			}
		}
	case *node256:
		for b := 0; b < 256; b++ {
			if x.children[b] != nil {
				fn(x.children[b])
			}
		}
	}
}

// Sizes reports the footprint: inner nodes are structure; leaves hold the
// key and value payloads.
func (t *Tree) Sizes() index.Sizes {
	var structure int64
	var leaves int64
	var walk func(n interface{})
	walk = func(n interface{}) {
		switch x := n.(type) {
		case nil:
			return
		case *leaf:
			leaves++
			return
		case *node4:
			structure += 16*4 + int64(len(x.prefix)) + 24
		case *node16:
			structure += 17*16 + int64(len(x.prefix)) + 24
		case *node48:
			structure += 256 + 16*48 + int64(len(x.prefix)) + 24
		case *node256:
			structure += 16*256 + int64(len(x.prefix)) + 24
		}
		each(n, walk)
	}
	walk(t.root)
	return index.Sizes{
		Structure: structure,
		Keys:      leaves * 8,
		Values:    leaves * 8,
	}
}
