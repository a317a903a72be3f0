package pla

import (
	"math"
	"sort"

	"learnedpieces/internal/parallel"
	"learnedpieces/internal/search"
)

// LRS is the linear recursive structure (PGM-Index): Opt-PLA levels at
// error eps, the lowest over the domain given to Build, each higher one
// over the first keys of the level below, until one segment remains.
// Locate descends them by calculation, one Floor per level.
type LRS struct {
	eps    int
	levels [][]Segment
	// levels[i] approximates domains[i]; domains[i+1] holds levels[i]'s
	// first keys, so the last domain is the top segment's single key.
	domains [][]uint64
}

// NewLRS returns an LRS with the given error bound (<=0: 8).
func NewLRS(eps int) *LRS {
	if eps <= 0 {
		eps = 8
	}
	return &LRS{eps: eps}
}

// Name implements core.Structure.
func (s *LRS) Name() string { return "lrs" }

// Build implements core.Structure: levels over the sorted domain.
func (s *LRS) Build(domain []uint64) {
	s.levels, s.domains = nil, [][]uint64{domain}
	for len(domain) > 0 {
		segs := BuildOptPLA(domain, s.eps)
		domain = make([]uint64, len(segs))
		for i := range segs {
			domain[i] = segs[i].FirstKey
		}
		s.levels = append(s.levels, segs)
		s.domains = append(s.domains, domain)
		if len(segs) == 1 {
			return
		}
	}
}

// Locate implements core.Structure: the index of the greatest domain
// element <= key, 0 when there is none or nothing was built.
func (s *LRS) Locate(key uint64) int {
	idx := 0
	for lvl := len(s.levels) - 1; lvl >= 0; lvl-- {
		p := s.levels[lvl][idx].Predict(key)
		idx = search.Floor(s.domains[lvl], key, p-s.eps-1, p+s.eps+2)
	}
	return idx
}

// Depth implements core.Structure: the level count.
func (s *LRS) Depth() float64 { return float64(len(s.levels)) }

// SizeBytes implements core.Structure: the segments and the first-key
// arrays the levels built (not the domain given to Build).
func (s *LRS) SizeBytes() int64 {
	var n int64
	for _, lvl := range s.levels {
		n += int64(len(lvl)) * 56
	}
	for i := 1; i < len(s.domains); i++ {
		n += int64(len(s.domains[i])) * 8
	}
	return n
}

// RMI is the two-stage recursive model index (Kraska et al.): a root
// line sends each key to one of L leaf lines, each fit over the
// contiguous run of keys the root sends it and recording the signed
// error of that fit, so a key present at position i lies in Window.
type RMI struct {
	want   int
	keys   []uint64
	root   Model // key -> leaf
	leaves []rmiLeaf
}

type rmiLeaf struct {
	Model
	minErr int32 // signed bounds: actual - predicted in [minErr, maxErr]
	maxErr int32
}

// NewRMI returns a two-stage RMI with the given leaf count (<=0: one
// leaf per 64 keys of the domain, at least one).
func NewRMI(leaves int) *RMI { return &RMI{want: leaves} }

// Name implements core.Structure.
func (r *RMI) Name() string { return "rmi" }

// Build implements core.Structure: trains both stages over sorted
// distinct keys.
func (r *RMI) Build(keys []uint64) {
	r.keys, r.leaves = keys, nil
	if len(keys) == 0 {
		return
	}
	numLeaves := r.want
	if numLeaves <= 0 {
		numLeaves = len(keys) / 64
	}
	numLeaves = max(numLeaves, 1)

	// Stage one: least squares of leafID = (i/n)*L over key. The sums
	// reduce over disjoint key chunks in parallel; per-chunk partials are
	// combined in chunk order so the result is deterministic for a given
	// worker count.
	r.root = Model{FirstKey: keys[0]}
	const minPerWorker = 16 << 10
	workers := parallel.Workers(len(keys) / minPerWorker)
	type sums struct{ sx, sy, sxx, sxy float64 }
	partial := make([]sums, workers)
	parallel.For(workers, len(keys), func(w, lo, hi int) {
		var p sums
		for i := lo; i < hi; i++ {
			x := float64(keys[i] - r.root.FirstKey)
			y := float64(i) * float64(numLeaves) / float64(len(keys))
			p.sx += x
			p.sy += y
			p.sxx += x * x
			p.sxy += x * y
		}
		partial[w] = p
	})
	var sx, sy, sxx, sxy float64
	for _, p := range partial {
		sx += p.sx
		sy += p.sy
		sxx += p.sxx
		sxy += p.sxy
	}
	fn := float64(len(keys))
	if denom := fn*sxx - sx*sx; denom != 0 {
		r.root.Slope = (fn*sxy - sx*sy) / denom
	}
	r.root.Intercept = (sy - r.root.Slope*sx) / fn

	// Assign keys to leaves by the root, then fit each leaf on its range.
	// Root predictions are monotone in the key (the least squares slope
	// over co-sorted x and y is never negative), so each leaf owns a
	// contiguous run and a worker finds the start of its leaf range by
	// binary search instead of replaying the whole scan — which is what
	// lets disjoint leaf ranges train in parallel.
	r.leaves = make([]rmiLeaf, numLeaves)
	leafWorkers := min(len(keys)/minPerWorker, numLeaves)
	parallel.For(parallel.Workers(leafWorkers), numLeaves, func(_, leafLo, leafHi int) {
		start := sort.Search(len(keys), func(i int) bool {
			return r.root.Predict(keys[i], numLeaves) >= leafLo
		})
		for leafID := leafLo; leafID < leafHi; leafID++ {
			end := start
			for end < len(keys) && r.root.Predict(keys[end], numLeaves) == leafID {
				end++
			}
			leaf := &r.leaves[leafID]
			leaf.Intercept = float64(start)
			if start < end {
				*leaf = rmiLeaf{Model: FitLinear(keys, start, end).Model, minErr: math.MaxInt32, maxErr: math.MinInt32}
			}
			for i := start; i < end; i++ {
				e := int32(i - leaf.Predict(keys[i], len(keys)))
				leaf.minErr = min(leaf.minErr, e)
				leaf.maxErr = max(leaf.maxErr, e)
			}
			start = end
		}
	})
}

// Window returns the positions [lo, hi) — unclamped — where key lies
// if it is in the keys last built, which must not be empty.
func (r *RMI) Window(key uint64) (lo, hi int) {
	leaf := &r.leaves[r.root.Predict(key, len(r.leaves))]
	p := leaf.Predict(key, len(r.keys))
	return p + int(leaf.minErr), p + int(leaf.maxErr) + 1
}

// Locate implements core.Structure: the index of the greatest key <=
// key, searched from the window outward; 0 when there is none.
func (r *RMI) Locate(key uint64) int {
	if len(r.keys) == 0 {
		return 0
	}
	lo, hi := r.Window(key)
	return search.Floor(r.keys, key, lo, hi)
}

// Depth implements core.Structure: the two stages.
func (r *RMI) Depth() float64 { return 2 }

// SizeBytes implements core.Structure: the root and the leaf lines.
func (r *RMI) SizeBytes() int64 { return int64(len(r.leaves))*32 + 24 }

// MaxLeafError returns the widest leaf error band; an RMI has no
// a-priori bound (paper: "Unfixed"), this is the measured value.
func (r *RMI) MaxLeafError() int {
	worst := 0
	for i := range r.leaves {
		worst = max(worst, int(r.leaves[i].maxErr)-int(r.leaves[i].minErr))
	}
	return worst
}

// FitRouter fits the inner node of an asymmetric tree (ALEX) over
// keys[lo:hi]: the least-squares line scaled to fanout child slots, and
// starts, where child c owns keys[starts[c]:starts[c+1]] — exactly the
// keys the line sends to slot c, so routing and storage agree. When the
// line sends every key to one slot it falls back to a 2-way split
// anchored at the median key; ok is false when float rounding defeats
// even that (pathological spacing), and the caller keeps the range
// whole. keys[lo:hi] must hold at least two distinct keys.
func FitRouter(keys []uint64, lo, hi, fanout int) (m Model, starts []int, ok bool) {
	n := hi - lo
	fit := FitLinear(keys, lo, hi)
	m = Model{
		FirstKey:  keys[lo],
		Slope:     fit.Slope * float64(fanout) / float64(n),
		Intercept: fit.Local().Intercept * float64(fanout) / float64(n),
	}
	if starts, ok = route(m, keys, lo, hi, fanout); ok {
		return m, starts, true
	}
	m.Slope, m.Intercept = 1/float64(keys[lo+n/2]-keys[lo]), 0
	starts, ok = route(m, keys, lo, hi, 2)
	return m, starts, ok
}

// route partitions keys[lo:hi] into the contiguous per-slot runs m
// predicts, and reports whether they split: no one slot holds them all.
func route(m Model, keys []uint64, lo, hi, slots int) (starts []int, split bool) {
	starts = make([]int, slots+1)
	starts[slots] = hi
	pos := lo
	split = true
	for c := 0; c < slots; c++ {
		starts[c] = pos
		for pos < hi && m.Predict(keys[pos], slots) <= c {
			pos++
		}
		if pos-starts[c] == hi-lo {
			split = false
		}
	}
	return starts, split
}
