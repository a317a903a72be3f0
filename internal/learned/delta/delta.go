// Package delta is the buffer piece of an updatable learned index (the
// paper's "buffer" insertion strategy, §IV-D): a sorted run of writes
// with tombstones that shadows an older, immutable layer until a retrain
// folds the two together.
//
// Run is the piece itself — lookup, insert-or-overwrite, a merge-cursor
// layer, and the newest-wins Merge every adopter retrains with (pgm's
// level cascade, rebuild's full rebuild, xindex's group compaction,
// finedex's segment retrain, a core leaf's rebuild). Buffer (buffer.go)
// is pgm's and the rebuild wrapper's write buffer: a live run in front of
// a frozen one, which is folded into a new base through retrain.Aside.
package delta

import (
	"learnedpieces/internal/index"
	"learnedpieces/internal/search"
)

// Run is a sorted run of distinct keys with parallel values and
// tombstones: Dead[i] marks Keys[i] deleted, shadowing any older
// version. A run written through Set or Upsert keeps all three slices
// the same length; Vals or Dead may be nil on a run only read (a
// tombstone-free base handed to Merge or AppendLayer), and nil Vals
// read as zeros.
type Run struct {
	Keys []uint64
	Vals []uint64
	Dead []bool
}

// Pos locates key: (its index, true) when present, (its insertion
// point, false) otherwise — the argument pair Set takes.
func (r *Run) Pos(key uint64) (int, bool) { return search.Find(r.Keys, key) }

// Find reports whether the run holds key and, if so, whether that entry
// is live and its value (0 for a tombstone).
func (r *Run) Find(key uint64) (val uint64, live, found bool) {
	i, ok := search.Find(r.Keys, key)
	if !ok {
		return 0, false, false
	}
	if r.Dead != nil && r.Dead[i] {
		return 0, false, true
	}
	return r.Vals[i], true, true
}

// Set writes (key, val, dead) at the position Pos returned for key:
// an overwrite when found, an insert that shifts the tail otherwise.
func (r *Run) Set(i int, found bool, key, val uint64, dead bool) {
	if !found {
		r.Keys = append(r.Keys, 0)
		r.Vals = append(r.Vals, 0)
		r.Dead = append(r.Dead, false)
		copy(r.Keys[i+1:], r.Keys[i:])
		copy(r.Vals[i+1:], r.Vals[i:])
		copy(r.Dead[i+1:], r.Dead[i:])
		r.Keys[i] = key
	}
	r.Vals[i] = val
	r.Dead[i] = dead
}

// Upsert inserts or overwrites key.
func (r *Run) Upsert(key, val uint64, dead bool) {
	i, ok := r.Pos(key)
	r.Set(i, ok, key, val, dead)
}

// AppendLayer appends r to layers as a merge-cursor layer positioned at
// start's lower bound, unless no entry of r is >= start.
func (r *Run) AppendLayer(layers []index.MergeLayer, start uint64) []index.MergeLayer {
	pos := search.LowerBound(r.Keys, start, 0, len(r.Keys))
	if pos == len(r.Keys) {
		return layers
	}
	return append(layers, index.MergeLayer{Keys: r.Keys, Vals: r.Vals, Dead: r.Dead, Pos: pos})
}

// Merge returns the union of two runs where newer's entry wins every key
// both hold. With keepDead the result carries the surviving tombstones
// (something older than both inputs may still hold their keys);
// without it, tombstones are dropped together with whatever they shadow
// and the result has no Dead slice. Merge never writes to its inputs —
// a frozen run stays readable while it is merged aside.
//
// The stretches of older between two consecutive newer keys are copied
// in bulk: a small buffer merged into a large base costs about one
// memmove of the base, and two interleaved runs of similar size pay no
// per-entry call.
func Merge(newer, older Run, keepDead bool) Run {
	n := len(newer.Keys) + len(older.Keys)
	out := Run{Keys: make([]uint64, n), Vals: make([]uint64, n)}
	if keepDead {
		out.Dead = make([]bool, n)
	}
	o, j := 0, 0
	for i, k := range newer.Keys {
		s := j
		for j < len(older.Keys) && older.Keys[j] < k {
			j++
		}
		if j > s {
			o = out.put(o, older, s, j, keepDead)
		}
		if j < len(older.Keys) && older.Keys[j] == k {
			j++ // shadowed by newer
		}
		if newer.Dead != nil && newer.Dead[i] {
			if !keepDead {
				continue
			}
			out.Dead[o] = true
		}
		out.Keys[o] = k
		if newer.Vals != nil {
			out.Vals[o] = newer.Vals[i]
		}
		o++
	}
	o = out.put(o, older, j, len(older.Keys), keepDead)
	out.Keys, out.Vals = out.Keys[:o], out.Vals[:o]
	if keepDead {
		out.Dead = out.Dead[:o]
	}
	return out
}

// Live returns r without its tombstones: r's own arrays when it holds
// none, a fresh run otherwise. The result has no Dead slice.
func (r *Run) Live() Run {
	dead := 0
	for _, d := range r.Dead {
		if d {
			dead++
		}
	}
	if dead == 0 {
		return Run{Keys: r.Keys, Vals: r.Vals}
	}
	n := len(r.Keys) - dead
	out := Run{Keys: make([]uint64, n), Vals: make([]uint64, n)}
	out.put(0, *r, 0, len(r.Keys), false)
	return out
}

// bulkCopy is the stretch length from which put copies with memmove: a
// shorter stretch is cheaper to move entry by entry than to pay the
// calls.
const bulkCopy = 16

// put copies src[s:e] into r at position o, dropping tombstones unless
// keepDead, and returns the position after the last entry written. r
// has room: it was sized for everything its caller merges.
func (r *Run) put(o int, src Run, s, e int, keepDead bool) int {
	if e-s >= bulkCopy && (keepDead || src.Dead == nil) {
		copy(r.Keys[o:], src.Keys[s:e])
		if src.Vals != nil {
			copy(r.Vals[o:], src.Vals[s:e])
		}
		if keepDead && src.Dead != nil {
			copy(r.Dead[o:], src.Dead[s:e])
		}
		return o + e - s
	}
	for x := s; x < e; x++ {
		if !keepDead && src.Dead != nil && src.Dead[x] {
			continue
		}
		r.Keys[o] = src.Keys[x]
		if src.Vals != nil {
			r.Vals[o] = src.Vals[x]
		}
		if keepDead && src.Dead != nil {
			r.Dead[o] = src.Dead[x]
		}
		o++
	}
	return o
}
