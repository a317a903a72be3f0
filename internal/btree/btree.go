// Package btree implements an in-memory B+tree in the style of STX
// B-Tree: fixed-capacity array nodes, linked leaves for range scans, and
// a bottom-up bulk loader. It is the traditional sorted-index baseline of
// the paper's end-to-end evaluation.
package btree

import (
	"sync"
	"unsafe"

	"learnedpieces/internal/index"
	"learnedpieces/internal/prefetch"
	"learnedpieces/internal/search"
)

const (
	leafCap  = 64 // entries per leaf
	innerCap = 32 // keys per inner node (children = keys+1)
)

type leaf struct {
	n    int
	next *leaf
	keys [leafCap]uint64
	vals [leafCap]uint64
}

type inner struct {
	n    int // number of keys; children in kids[:n+1]
	keys [innerCap]uint64
	kids [innerCap + 1]interface{}
}

// BTree is a B+tree mapping uint64 keys to uint64 values. Not safe for
// concurrent mutation; concurrent reads are safe once loaded.
type BTree struct {
	root   interface{}
	height int // number of levels; 1 = root is a leaf
	length int
	inners int
	leaves int
}

// New returns an empty B+tree.
func New() *BTree {
	l := &leaf{}
	return &BTree{root: l, height: 1, leaves: 1}
}

// Name implements index.Index.
func (t *BTree) Name() string { return "btree" }

// Len returns the number of stored entries.
func (t *BTree) Len() int { return t.length }

// Get returns the value stored under key.
func (t *BTree) Get(key uint64) (uint64, bool) {
	n := t.root
	for {
		switch x := n.(type) {
		case *inner:
			n = x.kids[x.route(key)]
		case *leaf:
			i := x.seek(key)
			if i < x.n && x.keys[i] == key {
				return x.vals[i], true
			}
			return 0, false
		}
	}
}

// upperBound returns the index of the first element > key.
//
//pieces:hotpath
func upperBound(keys []uint64, key uint64) int {
	return search.UpperBound(keys, key, 0, len(keys))
}

// route returns the slot of the child key descends into. The child
// slots are prefetched alongside the key search, so the line holding
// the answer is on its way while the search runs instead of being
// fetched once it ends.
//
//pieces:hotpath
func (x *inner) route(key uint64) int {
	prefetch.Slice(x.kids[:x.n+1])
	return upperBound(x.keys[:x.n], key)
}

// seek returns the slot of the first key >= key, prefetching the value
// slots alongside the key search as route does the child slots.
//
//pieces:hotpath
func (l *leaf) seek(key uint64) int {
	prefetch.Slice(l.vals[:l.n])
	return search.LowerBound(l.keys[:l.n], key, 0, l.n)
}

// GetBatch implements index.BatchGetter: the descents of up to MaxLanes
// keys advance one level per round (the tree is perfectly height-
// balanced, so every lane reaches its leaf after height-1 inner steps),
// then the leaf searches resolve in interleaved lockstep. It does not
// prefetch the child and value slots as route and seek do: the lanes'
// misses already overlap one another, and sixteen lanes' slot arrays
// on top of them measured 12-24% slower.
func (t *BTree) GetBatch(keys []uint64, vals []uint64, found []bool) {
	for off := 0; off < len(keys); off += search.MaxLanes {
		end := off + search.MaxLanes
		if end > len(keys) {
			end = len(keys)
		}
		m := end - off
		var node [search.MaxLanes]interface{}
		for l := 0; l < m; l++ {
			node[l] = t.root
		}
		for lvl := 1; lvl < t.height; lvl++ {
			for l := 0; l < m; l++ {
				x := node[l].(*inner)
				node[l] = x.kids[upperBound(x.keys[:x.n], keys[off+l])]
			}
		}
		var b search.Batch
		var lv [search.MaxLanes]*leaf
		for l := 0; l < m; l++ {
			x := node[l].(*leaf)
			lv[l] = x
			b.Add(x.keys[:x.n], keys[off+l], 0, x.n)
		}
		b.Run()
		for l := 0; l < m; l++ {
			if b.Found(l) {
				vals[off+l], found[off+l] = lv[l].vals[b.Pos(l)], true
			} else {
				vals[off+l], found[off+l] = 0, false
			}
		}
	}
}

// Floor returns the entry with the greatest key <= key, used when the
// tree indexes segment start keys (FITing-tree's inner structure). The
// descent records every left sibling so the predecessor is found even
// when lazy deletion has emptied whole leaves or subtrees on the way.
func (t *BTree) Floor(key uint64) (uint64, uint64, bool) {
	type frame struct {
		in *inner
		ci int
	}
	// The stack depth is the tree height minus one; a fixed array keeps
	// Floor allocation-free on the FITing-tree leaf-lookup hot path
	// (maxHeight is unreachable: fanout >= innerCap/2 per level).
	const maxHeight = 48
	var stack [maxHeight]frame
	depth := 0
	n := t.root
	for {
		switch x := n.(type) {
		case *inner:
			ci := x.route(key)
			stack[depth] = frame{x, ci}
			depth++
			n = x.kids[ci]
		case *leaf:
			prefetch.Slice(x.vals[:x.n])
			if i := upperBound(x.keys[:x.n], key); i > 0 {
				return x.keys[i-1], x.vals[i-1], true
			}
			// This leaf holds nothing <= key: fall back to the nearest
			// non-empty subtree to the left of the descent path.
			for s := depth - 1; s >= 0; s-- {
				for j := stack[s].ci - 1; j >= 0; j-- {
					if k, v, ok := maxOf(stack[s].in.kids[j]); ok {
						return k, v, true
					}
				}
			}
			return 0, 0, false
		}
	}
}

// maxOf returns the rightmost entry of a subtree, skipping leaves that
// lazy deletion emptied.
func maxOf(n interface{}) (uint64, uint64, bool) {
	switch x := n.(type) {
	case *inner:
		for i := x.n; i >= 0; i-- {
			if k, v, ok := maxOf(x.kids[i]); ok {
				return k, v, ok
			}
		}
		return 0, 0, false
	case *leaf:
		if x.n == 0 {
			return 0, 0, false
		}
		return x.keys[x.n-1], x.vals[x.n-1], true
	}
	return 0, 0, false
}

// Insert stores value under key, replacing any existing value.
func (t *BTree) Insert(key, value uint64) error {
	_, err := t.InsertReplace(key, value)
	return err
}

// InsertReplace implements index.Upserter: the leaf either overwrote a
// slot or grew by one, so the length says which.
func (t *BTree) InsertReplace(key, value uint64) (bool, error) {
	before := t.length
	midKey, newRight := t.insert(t.root, t.height, key, value)
	if newRight != nil {
		r := &inner{n: 1}
		r.keys[0] = midKey
		r.kids[0] = t.root
		r.kids[1] = newRight
		t.root = r
		t.height++
		t.inners++
	}
	return t.length == before, nil
}

// insert descends to the leaf; on split it returns the separator key and
// the new right sibling, else (0, nil).
func (t *BTree) insert(n interface{}, level int, key, value uint64) (uint64, interface{}) {
	if level == 1 {
		return t.insertLeaf(n.(*leaf), key, value)
	}
	x := n.(*inner)
	ci := x.route(key)
	midKey, newRight := t.insert(x.kids[ci], level-1, key, value)
	if newRight == nil {
		return 0, nil
	}
	if x.n < innerCap {
		insertInner(x, ci, midKey, newRight)
		return 0, nil
	}
	// Split the inner node, then insert into the correct half.
	half := x.n / 2
	sep := x.keys[half]
	right := &inner{n: x.n - half - 1}
	copy(right.keys[:], x.keys[half+1:x.n])
	copy(right.kids[:], x.kids[half+1:x.n+1])
	for i := half; i < x.n; i++ {
		x.kids[i+1] = nil
	}
	x.n = half
	t.inners++
	if midKey < sep {
		insertInner(x, upperBound(x.keys[:x.n], midKey), midKey, newRight)
	} else {
		insertInner(right, upperBound(right.keys[:right.n], midKey), midKey, newRight)
	}
	return sep, right
}

func insertInner(x *inner, at int, key uint64, kid interface{}) {
	copy(x.keys[at+1:x.n+1], x.keys[at:x.n])
	copy(x.kids[at+2:x.n+2], x.kids[at+1:x.n+1])
	x.keys[at] = key
	x.kids[at+1] = kid
	x.n++
}

func (t *BTree) insertLeaf(l *leaf, key, value uint64) (uint64, interface{}) {
	i := l.seek(key)
	if i < l.n && l.keys[i] == key {
		l.vals[i] = value
		return 0, nil
	}
	if l.n < leafCap {
		copy(l.keys[i+1:l.n+1], l.keys[i:l.n])
		copy(l.vals[i+1:l.n+1], l.vals[i:l.n])
		l.keys[i] = key
		l.vals[i] = value
		l.n++
		t.length++
		return 0, nil
	}
	// Split, then insert into the proper half.
	half := l.n / 2
	right := &leaf{n: l.n - half, next: l.next}
	copy(right.keys[:], l.keys[half:l.n])
	copy(right.vals[:], l.vals[half:l.n])
	l.n = half
	l.next = right
	t.leaves++
	if key < right.keys[0] {
		t.insertLeaf(l, key, value)
	} else {
		t.insertLeaf(right, key, value)
	}
	return right.keys[0], right
}

// Delete removes key (lazy: leaves are never merged) and reports whether
// it was present.
func (t *BTree) Delete(key uint64) bool {
	n := t.root
	for {
		switch x := n.(type) {
		case *inner:
			n = x.kids[x.route(key)]
		case *leaf:
			i := x.seek(key)
			if i >= x.n || x.keys[i] != key {
				return false
			}
			copy(x.keys[i:x.n-1], x.keys[i+1:x.n])
			copy(x.vals[i:x.n-1], x.vals[i+1:x.n])
			x.n--
			t.length--
			return true
		}
	}
}

// cursor streams the linked leaves; the descent happened in Range.
type cursor struct {
	l *leaf
	i int
}

var cursorPool = sync.Pool{New: func() any { return new(cursor) }}

// Range implements index.Ranger: one descent through the shared search
// kernels locates the leaf and slot of the first key >= start, then the
// pooled cursor walks the leaf chain. Descending iteration is not
// offered — leaves link forward only.
func (t *BTree) Range(start uint64) index.Cursor {
	node := t.root
	for {
		x, ok := node.(*inner)
		if !ok {
			break
		}
		node = x.kids[x.route(start)]
	}
	l := node.(*leaf)
	c := cursorPool.Get().(*cursor)
	c.l, c.i = l, l.seek(start)
	return c
}

// Next fills the destination slices from the leaf chain.
//
//pieces:hotpath
func (c *cursor) Next(keys, vals []uint64) int {
	n := 0
	l, i := c.l, c.i
	for l != nil && n < len(keys) {
		for i < l.n && n < len(keys) {
			keys[n] = l.keys[i]
			vals[n] = l.vals[i]
			i++
			n++
		}
		if i >= l.n {
			l, i = l.next, 0
		}
	}
	c.l, c.i = l, i
	return n
}

func (c *cursor) Close() {
	c.l = nil
	cursorPool.Put(c)
}

// BulkLoad builds the tree bottom-up from sorted distinct keys. The tree
// must be empty.
func (t *BTree) BulkLoad(keys, values []uint64) error {
	if len(keys) == 0 {
		return nil
	}
	// Build leaves at ~90% fill so early inserts do not immediately split.
	fill := leafCap * 9 / 10
	var leaves []*leaf
	var firsts []uint64
	for start := 0; start < len(keys); start += fill {
		end := start + fill
		if end > len(keys) {
			end = len(keys)
		}
		l := &leaf{n: end - start}
		copy(l.keys[:], keys[start:end])
		if values != nil {
			copy(l.vals[:], values[start:end])
		}
		if len(leaves) > 0 {
			leaves[len(leaves)-1].next = l
		}
		leaves = append(leaves, l)
		firsts = append(firsts, keys[start])
	}
	t.leaves = len(leaves)
	t.length = len(keys)
	t.height = 1
	if len(leaves) == 1 {
		t.root = leaves[0]
		return nil
	}
	// Build inner levels.
	kids := make([]interface{}, len(leaves))
	for i, l := range leaves {
		kids[i] = l
	}
	for len(kids) > 1 {
		groupSize := innerCap + 1
		var nextKids []interface{}
		var nextFirsts []uint64
		for start := 0; start < len(kids); start += groupSize {
			end := start + groupSize
			if end > len(kids) {
				end = len(kids)
			}
			in := &inner{n: end - start - 1}
			copy(in.kids[:], kids[start:end])
			copy(in.keys[:], firsts[start+1:end])
			t.inners++
			nextKids = append(nextKids, in)
			nextFirsts = append(nextFirsts, firsts[start])
		}
		kids, firsts = nextKids, nextFirsts
		t.height++
	}
	t.root = kids[0]
	return nil
}

// AvgDepth returns the number of inner levels traversed per lookup.
func (t *BTree) AvgDepth() float64 { return float64(t.height - 1) }

// Sizes reports the memory footprint split per Table III.
func (t *BTree) Sizes() index.Sizes {
	innerSz := int64(unsafe.Sizeof(inner{}))
	leafHdr := int64(unsafe.Sizeof(leaf{})) - leafCap*16 // struct minus key/val arrays
	return index.Sizes{
		Structure: int64(t.inners)*innerSz + int64(t.leaves)*leafHdr,
		Keys:      int64(t.leaves) * leafCap * 8,
		Values:    int64(t.leaves) * leafCap * 8,
	}
}
