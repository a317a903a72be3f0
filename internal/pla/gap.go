package pla

import (
	"learnedpieces/internal/prefetch"
	"learnedpieces/internal/search"
)

// LSA-gap: the approximation algorithm of ALEX. Instead of passively
// approximating the CDF of the stored keys, it first fits a least-squares
// line and then *changes the stored distribution*: keys are placed at
// their model-predicted slots inside an array that is larger than the key
// count, leaving gaps. The placed keys then follow the model almost
// exactly, so one model covers many more keys at a much lower average
// error than a packed layout — the property §IV-A identifies as the key
// to ALEX's performance.
//
// Gap representation (as in ALEX): a gap slot holds a *copy* of the key
// of the nearest occupied slot to its left (leading gaps hold 0). The key
// array is therefore plain sorted-with-duplicates, so searches are
// branch-light binary/exponential searches that never consult the
// occupancy bitmap. The bitmap (one bit per slot, 64 to a word) serves
// the writers and the scans: nearest gap, nearest neighbour, next live
// slot, each one word operation per 64 slots.

// GappedNode is a model-based gapped array of keys (and optional values).
// Slot i is occupied iff Occ.Has(i); unoccupied slots hold the left
// neighbour's key so Keys is globally non-decreasing. Keys and values sit
// in separate arrays: a lookup touches keys only, and a shift is one
// memmove per array.
type GappedNode struct {
	Model   // key -> slot
	Keys    []uint64
	Values  []uint64
	Occ     Bitmap
	NumKeys int
}

// InsertWork counts what gap insertion did, in slots: the exact,
// seed-stable form of the Put tail (Fig 13, Fig 18(a)), where a timing
// moves 2x between identical runs. Plain ints — the node's single writer
// owns them and reads them on its own timeline.
type InsertWork struct {
	Inserts   int64 // keys placed
	Shifted   int64 // slots moved one over to open a gap, summed
	MaxShift  int64 // the longest single shift
	GapSearch int64 // slots from the insertion point to the nearest gap, both sides summed
}

func (w *InsertWork) shift(moved, searched int) {
	w.Shifted += int64(moved)
	w.GapSearch += int64(searched)
	if int64(moved) > w.MaxShift {
		w.MaxShift = int64(moved)
	}
}

// ALEX's density bounds, the share of a gapped node's slots that hold
// keys: a node is built at BuildDensity, expanded or split once an insert
// fills it to ExpandDensity, and an expand rebuilds it at RebuildDensity,
// so each retrain buys ExpandDensity-RebuildDensity of its capacity in
// future gap inserts.
const (
	RebuildDensity = 0.6
	BuildDensity   = 0.7
	ExpandDensity  = 0.8
)

// Capacity returns the number of slots (occupied + gaps).
func (g *GappedNode) Capacity() int { return len(g.Keys) }

// BuildLSAGap lays out keys (with parallel values, which may be nil) into
// a gapped array of capacity ~ len(keys)/density using a least-squares
// model scaled to the capacity. density must be in (0, 1]; any other
// value picks BuildDensity.
func BuildLSAGap(keys, values []uint64, density float64) *GappedNode {
	return BuildGapped(keys, values, gappedCapacity(len(keys), density))
}

func gappedCapacity(n int, density float64) int {
	if n == 0 {
		return 0
	}
	if density <= 0 || density > 1 {
		density = BuildDensity
	}
	return max(int(float64(n)/density)+1, n)
}

// BuildGapped is BuildLSAGap into exactly capacity slots (capacity >=
// len(keys)), for nodes whose size is fixed by their storage format.
func BuildGapped(keys, values []uint64, capacity int) *GappedNode {
	var fit lsq
	for i, k := range keys {
		fit.add(k, float64(i))
	}
	b := newGapBuilder(len(keys), capacity, &fit)
	for i, k := range keys {
		var v uint64
		if values != nil {
			v = values[i]
		}
		b.place(k, v)
	}
	return b.finish()
}

// gapBuilder performs model-based placement of n ascending keys into a
// fresh node: each key goes to its predicted slot, or to the next free
// slot to the right when that would break ordering, always leaving room
// for the keys still to come; the gaps it steps over are filled with
// left-neighbour copies on the way (leading gaps stay 0).
type gapBuilder struct {
	g    *GappedNode
	next int    // first slot not yet written
	last uint64 // key of the last placed slot
	left int    // keys still to place
}

// newGapBuilder sizes the node for n keys and scales their rank model
// to its capacity.
func newGapBuilder(n, capacity int, fit *lsq) gapBuilder {
	slope, intercept := fit.line()
	scale := float64(capacity) / float64(max(n, 1))
	return gapBuilder{left: n, g: &GappedNode{
		Model:   Model{FirstKey: fit.x0, Slope: slope * scale, Intercept: intercept * scale},
		Keys:    make([]uint64, capacity),
		Values:  make([]uint64, capacity),
		Occ:     NewBitmap(capacity),
		NumKeys: n,
	}}
}

func (b *gapBuilder) place(key, value uint64) {
	g := b.g
	s := max(g.Predict(key, len(g.Keys)), b.next)
	s = min(s, len(g.Keys)-b.left)
	for i := b.next; i < s; i++ {
		g.Keys[i] = b.last
	}
	g.Keys[s], g.Values[s] = key, value
	g.Occ.Set(s)
	b.next, b.last, b.left = s+1, key, b.left-1
}

func (b *gapBuilder) finish() *GappedNode {
	for i := b.next; i < len(b.g.Keys); i++ {
		b.g.Keys[i] = b.last
	}
	return b.g
}

// SlotOf returns the occupied slot holding key via exponential search
// around the model prediction, or (-1, false) if key is absent.
func (g *GappedNode) SlotOf(key uint64) (int, bool) {
	j := g.seek(key)
	if j < len(g.Keys) && g.Keys[j] == key {
		return j, true
	}
	return -1, false
}

// seek returns key's own slot when it is present, and otherwise the
// occupied slot of its successor (Capacity() when it has none). The
// leftmost slot holding a non-zero key is its occupied original (a gap
// copy equals its left neighbour), so the search alone answers; only key
// 0 shares its value with the never-filled leading gaps and asks the
// bitmap where the first occupied slot is.
//
//pieces:hotpath
func (g *GappedNode) seek(key uint64) int {
	if key == 0 {
		return g.Occ.NextSet(0, len(g.Keys))
	}
	return g.lowerBound(key)
}

// SeekGE returns the first occupied slot whose key is >= key, or
// Capacity() when the node holds none: where an ascending scan from key
// starts. The exponential search lands on the answer for every key but
// 0, which can land in the leading run of zeroed gaps; the bitmap steps
// over it.
func (g *GappedNode) SeekGE(key uint64) int {
	return g.Occ.NextSet(g.lowerBound(key), len(g.Keys))
}

// SeekLE returns the last occupied slot whose key is <= key, or -1 when
// the node holds none. The rightmost slot with a key <= key may be a gap
// copy; its original is the first occupied slot to its left, one gap run
// away.
func (g *GappedNode) SeekLE(key uint64) int {
	return g.Occ.PrevSet(g.upperBound(key) - 1)
}

// lowerBound returns the leftmost slot whose key is >= key, using
// exponential search from the model's prediction.
//
//pieces:hotpath
func (g *GappedNode) lowerBound(key uint64) int {
	return g.expBound(key)
}

// expBound returns the leftmost slot whose key is >= bound: exponential
// window growth from the model's prediction (ALEX's method), finished by
// the shared last-mile kernel. Both bound flavours reduce to it — the
// strict (> key) bound is the weak bound of key+1 over uint64 keys.
// Every caller goes on to the value at or next to the answer, which the
// model places within a slot or two of its prediction: the value line at
// the predicted slot is prefetched first, so its miss overlaps the key
// search instead of following it.
//
//pieces:hotpath
func (g *GappedNode) expBound(bound uint64) int {
	n := len(g.Keys)
	if n == 0 {
		return 0
	}
	p := g.Predict(bound, n)
	if p < len(g.Values) {
		prefetch.Slice(g.Values[p : p+1])
	}
	var lo, hi int
	if g.Keys[p] >= bound {
		// Answer is at or left of p: grow the window leftward.
		hi = p + 1
		lo = p
		step := 1
		for lo > 0 && g.Keys[lo-1] >= bound {
			lo -= step
			if lo < 0 {
				lo = 0
			}
			step <<= 1
		}
	} else {
		// Answer is right of p: grow the window rightward.
		lo = p + 1
		hi = p + 1
		step := 1
		for hi < n && g.Keys[hi] < bound {
			lo = hi + 1
			hi += step
			if hi > n {
				hi = n
			}
			step <<= 1
		}
		if hi < n {
			hi++ // include the slot that satisfied the bound
		}
	}
	return search.LowerBound(g.Keys, bound, lo, hi)
}

// InsertReplace is the upsert a Put needs, from one search: it stores
// value under key and reports whether key was already there. A new key
// gets ALEX's model-based insert: a slot in the gap between its sorted
// neighbours, or, when they are adjacent, the slot freed by shifting the
// packed run toward the nearest gap. ok is false when key is absent and
// the node has no free slot; nothing changed. w, when non-nil,
// accumulates the work.
func (g *GappedNode) InsertReplace(key, value uint64, w *InsertWork) (existed, ok bool) {
	rn := g.seek(key)
	if rn < len(g.Keys) && g.Keys[rn] == key {
		g.Values[rn] = value
		return true, true
	}
	if g.NumKeys >= len(g.Keys) {
		return false, false
	}
	g.insertBefore(rn, key, value, w)
	return false, true
}

// insertBefore places an absent key given rn, the occupied slot of its
// successor (Capacity() when it has none). The node has a free slot.
func (g *GappedNode) insertBefore(rn int, key, value uint64, w *InsertWork) {
	n := len(g.Keys)
	if w != nil {
		w.Inserts++
	}
	// ln = rightmost occupied slot left of rn: the predecessor.
	ln := g.Occ.PrevSet(rn - 1)
	if rn-ln > 1 {
		// A gap run lies between the neighbours: take the predicted slot
		// inside it and refresh the copies to its right.
		at := min(max(g.Predict(key, n), ln+1), rn-1)
		g.Keys[at], g.Values[at] = key, value
		g.Occ.Set(at)
		g.NumKeys++
		for i := at + 1; i < rn; i++ {
			g.Keys[i] = key
		}
		return
	}
	// Neighbours adjacent: move the packed run between the insertion
	// point and the nearest gap one slot toward that gap.
	left, right := g.Occ.PrevClear(ln), g.Occ.NextClear(rn, n)
	at, moved := rn, right-rn
	if left >= 0 && (right >= n || ln-left <= right-rn) {
		at, moved = ln, ln-left
		copy(g.Keys[left:ln], g.Keys[left+1:ln+1])
		copy(g.Values[left:ln], g.Values[left+1:ln+1])
		g.Occ.Set(left)
	} else {
		copy(g.Keys[rn+1:right+1], g.Keys[rn:right])
		copy(g.Values[rn+1:right+1], g.Values[rn:right])
		g.Occ.Set(right)
	}
	g.Keys[at], g.Values[at] = key, value
	g.NumKeys++
	if w != nil {
		w.shift(moved, ln-left+right-rn)
	}
}

// upperBound returns the leftmost slot with key strictly greater than
// target (or Capacity()).
//
//pieces:hotpath
func (g *GappedNode) upperBound(key uint64) int {
	if key == ^uint64(0) {
		return len(g.Keys)
	}
	return g.expBound(key + 1)
}

// Remove clears the occupied slot `at`, turning it into a gap and
// refreshing the copies through the following gap run.
func (g *GappedNode) Remove(at int) {
	n := len(g.Keys)
	if at < 0 || at >= n || !g.Occ.Has(at) {
		return
	}
	g.Occ.Clear(at)
	g.NumKeys--
	var left uint64
	if p := g.Occ.PrevSet(at - 1); p >= 0 {
		left = g.Keys[p]
	}
	for i, end := at, g.Occ.NextSet(at+1, n); i < end; i++ {
		g.Keys[i] = left
	}
}
