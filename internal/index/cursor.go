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

// MergeCursor is a pooled cursor merging sorted layers in ascending key
// order, newest layer first: when several layers hold the same key, the
// earliest layer's entry wins and the others are skipped. The
// Keys/Vals/Dead slices are aliased and must stay immutable while the
// cursor is open.
type MergeCursor struct {
	// Layers are the merged sources, newest first. A caller of
	// OpenMergeCursor appends them before the first Next.
	Layers []MergeLayer
}

var mergeCursorPool = sync.Pool{New: func() any { return new(MergeCursor) }}

// OpenMergeCursor returns a pooled merge cursor with no layers. Its
// Layers keep the capacity of the cursor's earlier opens, so an index
// whose layer count varies from open to open (pgm's runs) appends them
// there and allocates nothing once warm.
func OpenMergeCursor() *MergeCursor {
	return mergeCursorPool.Get().(*MergeCursor)
}

// NewMergeCursor returns a pooled merge cursor over the given layers,
// which are copied into pooled storage.
func NewMergeCursor(layers []MergeLayer) Cursor {
	c := OpenMergeCursor()
	c.Layers = append(c.Layers, layers...)
	return c
}

// Next fills the destination slices with the next merged live entries.
//
//pieces:hotpath
func (c *MergeCursor) Next(keys, vals []uint64) int {
	n := 0
	for n < len(keys) {
		min := uint64(0)
		win := -1
		for i := range c.Layers {
			l := &c.Layers[i]
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
		l := &c.Layers[win]
		dead := l.Dead != nil && l.Dead[l.Pos]
		var val uint64
		if l.Vals != nil {
			val = l.Vals[l.Pos]
		}
		// Advance every layer sitting on the winning key; layers before
		// win cannot hold it (they would have won).
		for i := win; i < len(c.Layers); i++ {
			l2 := &c.Layers[i]
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

func (c *MergeCursor) Close() {
	c.Layers = c.Layers[:0]
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
