package pla

import "learnedpieces/internal/search"

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
// occupancy bitmap; the bitmap is only checked to confirm the final
// match.

// GappedNode is a model-based gapped array of keys (and optional values).
// Slot i is occupied iff Used[i]; unoccupied slots hold the left
// neighbour's key so Keys is globally non-decreasing.
type GappedNode struct {
	FirstKey  uint64
	Slope     float64 // model: slot ~= Slope*(key-FirstKey) + Intercept
	Intercept float64
	Keys      []uint64
	Values    []uint64
	Used      []bool
	NumKeys   int
}

// Capacity returns the number of slots (occupied + gaps).
func (g *GappedNode) Capacity() int { return len(g.Keys) }

// PredictSlot returns the model's slot estimate for key, clamped.
func (g *GappedNode) PredictSlot(key uint64) int {
	var d float64
	if key >= g.FirstKey {
		d = float64(key - g.FirstKey)
	} else {
		d = -float64(g.FirstKey - key)
	}
	p := int(g.Slope*d + g.Intercept)
	if p < 0 {
		return 0
	}
	if p >= len(g.Keys) {
		return len(g.Keys) - 1
	}
	return p
}

// BuildLSAGap lays out keys (with parallel values, which may be nil) into
// a gapped array of capacity ~ len(keys)/density using a least-squares
// model scaled to the capacity. density must be in (0, 1]; ALEX uses ~0.7.
func BuildLSAGap(keys, values []uint64, density float64) *GappedNode {
	n := len(keys)
	if n == 0 {
		return &GappedNode{Keys: []uint64{}, Values: []uint64{}, Used: []bool{}}
	}
	if density <= 0 || density > 1 {
		density = 0.7
	}
	capacity := int(float64(n)/density) + 1
	if capacity < n {
		capacity = n
	}

	// Least-squares fit of rank over key, anchored at the first key.
	base := fitLeastSquares(keys, 0, n)
	scale := float64(capacity) / float64(n)
	g := &GappedNode{
		FirstKey:  keys[0],
		Slope:     base.Slope * scale,
		Intercept: (base.Intercept - float64(base.Start)) * scale,
		Keys:      make([]uint64, capacity),
		Values:    make([]uint64, capacity),
		Used:      make([]bool, capacity),
		NumKeys:   n,
	}

	// Model-based placement: each key goes to its predicted slot, or to the
	// next free slot to the right when that would break ordering.
	next := 0
	for i, k := range keys {
		s := g.PredictSlot(k)
		if s < next {
			s = next
		}
		// Leave room for the remaining keys.
		maxSlot := capacity - (n - i)
		if s > maxSlot {
			s = maxSlot
		}
		g.Keys[s] = k
		if values != nil {
			g.Values[s] = values[i]
		}
		g.Used[s] = true
		next = s + 1
	}
	// Fill gaps with left-neighbour copies (leading gaps stay 0).
	var last uint64
	for i := range g.Keys {
		if g.Used[i] {
			last = g.Keys[i]
		} else {
			g.Keys[i] = last
		}
	}
	return g
}

// SlotOf returns the occupied slot holding key via exponential search
// around the model prediction, or (-1, false) if key is absent.
func (g *GappedNode) SlotOf(key uint64) (int, bool) {
	n := len(g.Keys)
	if n == 0 {
		return -1, false
	}
	j := g.lowerBound(key)
	// j is the leftmost slot with Keys >= key; the occupied original of a
	// duplicate run is its leftmost slot, except for the all-zero leading
	// run, which we skip over.
	for ; j < n && g.Keys[j] == key; j++ {
		if g.Used[j] {
			return j, true
		}
	}
	return -1, false
}

// SeekGE returns the first occupied slot whose key is >= key, or
// Capacity() when the node holds none: where an ascending scan from key
// starts. The leftmost slot holding a given key is its occupied original
// (a gap copy equals its left neighbour), so the exponential search lands
// on the answer; only key 0 can land in the leading run of zeroed gaps,
// which the loop steps over.
func (g *GappedNode) SeekGE(key uint64) int {
	i := g.lowerBound(key)
	for i < len(g.Keys) && !g.Used[i] {
		i++
	}
	return i
}

// SeekLE returns the last occupied slot whose key is <= key, or -1 when
// the node holds none: where a descending scan from key starts. The
// rightmost slot with a key <= key may be a gap copy; its original is the
// first occupied slot to its left, one gap run away.
func (g *GappedNode) SeekLE(key uint64) int {
	i := g.upperBound(key) - 1
	for i >= 0 && !g.Used[i] {
		i--
	}
	return i
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
//
//pieces:hotpath
func (g *GappedNode) expBound(bound uint64) int {
	n := len(g.Keys)
	if n == 0 {
		return 0
	}
	p := g.PredictSlot(bound)
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

// Insert performs ALEX's model-based insert: place key in a gap between
// its sorted neighbours, shifting the short run toward the nearest gap
// when the neighbours are adjacent. The key must not be present and the
// node must have at least one free slot.
func (g *GappedNode) Insert(key, value uint64) bool {
	n := len(g.Keys)
	if g.NumKeys >= n {
		return false
	}
	// rn = leftmost occupied slot with key > target (gap copies equal
	// their left original, so the leftmost slot holding a greater key is
	// always the occupied original).
	rn := g.upperBound(key)
	// ln = rightmost occupied slot left of rn (its key is < target since
	// the target is absent).
	ln := rn - 1
	for ln >= 0 && !g.Used[ln] {
		ln--
	}
	if rn-ln > 1 {
		// A gap exists between the neighbours.
		at := g.PredictSlot(key)
		if at <= ln {
			at = ln + 1
		}
		if at >= rn {
			at = rn - 1
		}
		g.place(at, rn, key, value)
		return true
	}
	// Neighbours adjacent: find the nearest gap on either side.
	left := ln
	for left >= 0 && g.Used[left] {
		left--
	}
	right := rn
	for right < n && g.Used[right] {
		right++
	}
	switch {
	case left < 0 && right >= n:
		return false
	case left >= 0 && (right >= n || ln-left <= right-rn):
		// Shift occupied run (left, ln] one slot left; ln frees up.
		for i := left; i < ln; i++ {
			g.Keys[i] = g.Keys[i+1]
			g.Values[i] = g.Values[i+1]
			g.Used[i] = true
		}
		g.place(ln, rn, key, value)
	default:
		// Shift occupied run [rn, right) one slot right; rn frees up.
		for i := right; i > rn; i-- {
			g.Keys[i] = g.Keys[i-1]
			g.Values[i] = g.Values[i-1]
			g.Used[i] = true
		}
		g.place(rn, rn+1, key, value)
	}
	return true
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

// place stores key at the gap slot `at` and refreshes the copies in the
// gap run (at, nextOccupied).
func (g *GappedNode) place(at, nextOccupied int, key, value uint64) {
	g.Keys[at] = key
	g.Values[at] = value
	g.Used[at] = true
	g.NumKeys++
	for i := at + 1; i < nextOccupied && i < len(g.Keys); i++ {
		if g.Used[i] {
			break
		}
		g.Keys[i] = key
	}
}

// Remove clears the occupied slot `at`, turning it into a gap and
// refreshing the copies through the following gap run.
func (g *GappedNode) Remove(at int) {
	if at < 0 || at >= len(g.Keys) || !g.Used[at] {
		return
	}
	g.Used[at] = false
	g.NumKeys--
	var left uint64
	for i := at - 1; i >= 0; i-- {
		if g.Used[i] {
			left = g.Keys[i]
			break
		}
	}
	for i := at; i < len(g.Keys) && !g.Used[i]; i++ {
		g.Keys[i] = left
	}
}

// EvaluateGapped measures the placement error of the node's model against
// its occupied slots: the error a lookup must cover by local search.
func EvaluateGapped(g *GappedNode) Metrics {
	m := Metrics{Segments: 1}
	if g.NumKeys == 0 {
		return m
	}
	var sum float64
	for i, used := range g.Used {
		if !used {
			continue
		}
		p := g.PredictSlot(g.Keys[i])
		e := p - i
		if e < 0 {
			e = -e
		}
		sum += float64(e)
		if e > m.MaxErr {
			m.MaxErr = e
		}
	}
	m.AvgErr = sum / float64(g.NumKeys)
	return m
}

// BuildLSAGapSegments splits keys into fixed-length runs of segLen and
// gap-lays each run independently, mirroring how the paper sweeps the
// LSA-gap algorithm in §IV-A. It returns the nodes plus aggregate metrics
// (Segments = node count; errors measured in slots).
func BuildLSAGapSegments(keys []uint64, segLen int, density float64) ([]*GappedNode, Metrics) {
	if segLen <= 0 {
		segLen = 1
	}
	var nodes []*GappedNode
	agg := Metrics{}
	var sum float64
	var total int
	for start := 0; start < len(keys); start += segLen {
		end := start + segLen
		if end > len(keys) {
			end = len(keys)
		}
		g := BuildLSAGap(keys[start:end], nil, density)
		nodes = append(nodes, g)
		m := EvaluateGapped(g)
		sum += m.AvgErr * float64(g.NumKeys)
		total += g.NumKeys
		if m.MaxErr > agg.MaxErr {
			agg.MaxErr = m.MaxErr
		}
	}
	agg.Segments = len(nodes)
	if total > 0 {
		agg.AvgErr = sum / float64(total)
	}
	return nodes, agg
}
