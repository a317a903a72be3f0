package index

import "sync"

// Shared pooled cursors. Flat-array indexes (rmi, rs) and layered
// merge indexes (pgm) build their Range cursors from these instead of
// re-implementing the walk; the pools keep cursor opens allocation-free
// after warm-up, which the hotpath analyzer verifies on the Next
// methods. Positioning (the one model descent / binary search per
// Range call) stays in the owning index — these helpers only walk.

// sliceCursor streams parallel sorted key/value slices in ascending
// order from a caller-located position.
type sliceCursor struct {
	keys, vals []uint64
	pos        int
}

var sliceCursorPool = sync.Pool{New: func() any { return new(sliceCursor) }}

// NewSliceCursor returns a pooled cursor over the parallel sorted
// slices keys/vals. pos is the caller-located start position (the
// lower bound of the range start; a position past the end yields an
// exhausted cursor). vals may be nil for key-only indexes, in which
// case every value reads as 0. The cursor aliases the slices; they must
// stay immutable while it is open.
func NewSliceCursor(keys, vals []uint64, pos int) Cursor {
	c := sliceCursorPool.Get().(*sliceCursor)
	c.keys, c.vals, c.pos = keys, vals, pos
	return c
}

// Next fills the destination slices with the next batch of entries.
//
//pieces:hotpath
func (c *sliceCursor) Next(keys, vals []uint64) int {
	n := 0
	for n < len(keys) && c.pos < len(c.keys) {
		keys[n] = c.keys[c.pos]
		if c.vals != nil {
			vals[n] = c.vals[c.pos]
		} else {
			vals[n] = 0
		}
		c.pos++
		n++
	}
	return n
}

func (c *sliceCursor) Close() {
	c.keys, c.vals = nil, nil
	sliceCursorPool.Put(c)
}

// MergeLayer is one sorted source of a merge cursor. Pos is the
// caller-located start position within Keys (lower bound of the range
// start); Next advances it. Dead, when non-nil, marks tombstoned
// entries: a winning dead entry suppresses its key entirely —
// including older layers' live versions — exactly the shadowing rule
// of the delta-buffer Scan paths it replaces.
type MergeLayer struct {
	Keys, Vals []uint64
	Dead       []bool
	Pos        int
}

type mergeCursor struct {
	layers []MergeLayer
}

var mergeCursorPool = sync.Pool{New: func() any { return new(mergeCursor) }}

// NewMergeCursor returns a pooled cursor merging the given sorted
// layers in ascending key order, newest layer first: when several
// layers hold the same key, the earliest layer's entry wins and the
// others are skipped. The layer slice is copied into pooled storage;
// the Keys/Vals/Dead slices are aliased and must stay immutable while
// the cursor is open.
func NewMergeCursor(layers []MergeLayer) Cursor {
	c := mergeCursorPool.Get().(*mergeCursor)
	c.layers = append(c.layers[:0], layers...)
	return c
}

// Next fills the destination slices with the next merged live entries.
//
//pieces:hotpath
func (c *mergeCursor) Next(keys, vals []uint64) int {
	n := 0
	for n < len(keys) {
		min := uint64(0)
		win := -1
		for i := range c.layers {
			l := &c.layers[i]
			if l.Pos >= len(l.Keys) {
				continue
			}
			if k := l.Keys[l.Pos]; win < 0 || k < min {
				min, win = k, i
			}
		}
		if win < 0 {
			break
		}
		l := &c.layers[win]
		dead := l.Dead != nil && l.Dead[l.Pos]
		var val uint64
		if l.Vals != nil {
			val = l.Vals[l.Pos]
		}
		// Advance every layer sitting on the winning key; layers before
		// win cannot hold it (they would have won).
		for i := win; i < len(c.layers); i++ {
			l2 := &c.layers[i]
			if l2.Pos < len(l2.Keys) && l2.Keys[l2.Pos] == min {
				l2.Pos++
			}
		}
		if dead {
			continue
		}
		keys[n] = min
		vals[n] = val
		n++
	}
	return n
}

func (c *mergeCursor) Close() {
	c.layers = c.layers[:0]
	mergeCursorPool.Put(c)
}

// scanBuf is Scan's pull buffer. It is pooled rather than declared in
// Scan's frame because slices handed to an interface method escape.
type scanBuf struct{ keys, vals [16]uint64 }

var scanBufPool = sync.Pool{New: func() any { return new(scanBuf) }}

// Scan drives one cursor of r in callback style: fn sees the entries
// with key >= start in ascending key order until it returns false, the
// range is exhausted, or n entries were visited (n <= 0 means no
// limit). Pulls are clamped to the remaining limit, so a Scan of one
// entry asks the index for exactly one.
func Scan(r Ranger, start uint64, n int, fn func(key, value uint64) bool) {
	b := scanBufPool.Get().(*scanBuf)
	defer scanBufPool.Put(b)
	cur := r.Range(start)
	defer cur.Close()
	for seen := 0; n <= 0 || seen < n; {
		pull := len(b.keys)
		if n > 0 {
			pull = min(pull, n-seen)
		}
		m := cur.Next(b.keys[:pull], b.vals[:pull])
		if m == 0 {
			return
		}
		for i := 0; i < m; i++ {
			if !fn(b.keys[i], b.vals[i]) {
				return
			}
		}
		seen += m
	}
}
