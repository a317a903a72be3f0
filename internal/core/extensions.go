package core

// Extensions realising the paper's §V design suggestions that no
// evaluated index implemented:
//
//   - HotATS (§V-B1): "the asymmetric tree structure can support the hot
//     data to be placed closer to the root node, which can shorten the
//     total number of queries" — an ATS whose fanout decisions are driven
//     by per-leaf access weights, so frequently accessed regions sit at
//     smaller depth.
//   - AppendInsert (§V-B2): "since sequential data will always be
//     inserted at the end of the storage space, the inplace insertion
//     strategy proposed by ALEX will waste much space" — a hybrid
//     insertion strategy that detects append patterns and packs them
//     densely into a tail leaf, falling back to buffered insertion for
//     random keys.

// HotATS is an access-aware asymmetric tree: ranges whose access weight
// is disproportionate to their size are partitioned more aggressively
// (shallower), cold ranges less (deeper).
type HotATS struct {
	ats     *ATS
	weights []float64
	totalW  float64
}

// NewHotATS returns a hot-aware ATS. Call SetWeights before Build; with
// no weights it behaves like the plain ATS.
func NewHotATS(maxDirect, maxFanout int) *HotATS {
	return &HotATS{ats: NewATS(maxDirect, maxFanout)}
}

// Name implements Structure.
func (s *HotATS) Name() string { return "hot-ats" }

// SetWeights installs per-leaf access weights (same order/length as the
// firsts passed to Build). Typically collected by sampling a workload.
func (s *HotATS) SetWeights(w []float64) {
	s.weights = w
	s.totalW = 0
	for _, v := range w {
		s.totalW += v
	}
}

// Build implements Structure.
func (s *HotATS) Build(firsts []uint64) {
	s.ats.firsts = firsts
	if len(firsts) == 0 {
		s.ats.root = atsRange{0, 0}
		return
	}
	if len(s.weights) != len(firsts) || s.totalW <= 0 {
		s.ats.root = s.ats.build(0, len(firsts))
		return
	}
	s.ats.root = s.buildWeighted(0, len(firsts))
}

// heat returns the range's access share divided by its size share: >1
// means hotter than average.
func (s *HotATS) heat(lo, hi int) float64 {
	var w float64
	for i := lo; i < hi; i++ {
		w += s.weights[i]
	}
	sizeShare := float64(hi-lo) / float64(len(s.ats.firsts))
	if sizeShare == 0 {
		return 1
	}
	return (w / s.totalW) / sizeShare
}

func (s *HotATS) buildWeighted(lo, hi int) atsNode {
	a := s.ats
	n := hi - lo
	// Hot ranges keep a smaller direct threshold (finish in a tiny binary
	// search sooner); cold ranges accept bigger range leaves.
	direct := a.maxDirect
	h := s.heat(lo, hi)
	switch {
	case h >= 2:
		direct = a.maxDirect / 2
	case h < 0.5:
		direct = a.maxDirect * 4
	}
	if direct < 2 {
		direct = 2
	}
	if n <= direct {
		return atsRange{lo, hi}
	}
	fanout := 2
	target := direct / 2
	if target < 1 {
		target = 1
	}
	for fanout < a.maxFanout && n/fanout > target {
		fanout *= 2
	}
	// Hot ranges get up to 4x the fanout (shallower subtrees).
	if h >= 2 {
		for i := 0; i < 2 && fanout < a.maxFanout; i++ {
			fanout *= 2
		}
	}
	return a.inner(lo, hi, fanout, s.buildWeighted)
}

// Locate implements Structure.
func (s *HotATS) Locate(key uint64) int { return s.ats.Locate(key) }

// Depth implements Structure (unweighted; see WeightedDepth).
func (s *HotATS) Depth() float64 { return s.ats.Depth() }

// WeightedDepth returns the access-weighted average depth — the quantity
// the §V-B1 suggestion optimises.
func (s *HotATS) WeightedDepth() float64 {
	if len(s.weights) != len(s.ats.firsts) || s.totalW <= 0 {
		return s.ats.Depth()
	}
	var sum float64
	var walk func(n atsNode, d float64)
	walk = func(n atsNode, d float64) {
		switch x := n.(type) {
		case *atsInner:
			for _, c := range x.children {
				walk(c, d+1)
			}
		case atsRange:
			for i := x.lo; i < x.hi; i++ {
				sum += d * s.weights[i]
			}
		}
	}
	walk(s.ats.root, 0)
	return sum / s.totalW
}

// SizeBytes implements Structure.
func (s *HotATS) SizeBytes() int64 { return s.ats.SizeBytes() }

// AppendInsert is the §V-B2 hybrid strategy: keys larger than everything
// seen so far are packed densely at the leaf's tail (no reserved space
// wasted, no shifting); out-of-order keys fall back to a sorted buffer.
type AppendInsert struct {
	// BufSize is the fallback buffer capacity; <= 0 picks 256.
	BufSize int
	// TailCap bounds the packed tail growth between retrains; <= 0 picks
	// 4096.
	TailCap int
}

// Name implements InsertStrategy.
func (s AppendInsert) Name() string { return "append-hybrid" }

func (s AppendInsert) bufSize() int {
	if s.BufSize <= 0 {
		return 256
	}
	return s.BufSize
}

func (s AppendInsert) tailCap() int {
	if s.TailCap <= 0 {
		return 4096
	}
	return s.TailCap
}

// Prepare implements InsertStrategy.
func (s AppendInsert) Prepare(l *Leaf) {}

// Insert implements InsertStrategy.
func (s AppendInsert) Insert(l *Leaf, key, value uint64, _ bool) (bool, bool) {
	if l.Occ == nil && s.isAppend(l, key) {
		l.Keys = append(l.Keys, key)
		l.Vals = append(l.Vals, value)
		l.NumKeys++
		// Appends do not move existing keys, so the exact extrapolation
		// error of the new tail key is the only bound update needed; on
		// truly sequential data the model extrapolates for free.
		if e := abs(l.Predict(key, len(l.Keys)) - (len(l.Keys) - 1)); e > l.MaxErr {
			l.MaxErr = e
		}
		return true, len(l.Keys) >= s.tailCap() && l.MaxErr > 64
	}
	// Fallback: buffered insertion.
	l.buffer(key, value)
	return true, len(l.Buf.Keys) >= s.bufSize()
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// isAppend reports whether key extends the leaf's tail (greater than both
// the stored keys and any buffered key).
func (s AppendInsert) isAppend(l *Leaf, key uint64) bool {
	if len(l.Keys) > 0 && key <= l.Keys[len(l.Keys)-1] {
		return false
	}
	if n := len(l.Buf.Keys); n > 0 && key <= l.Buf.Keys[n-1] {
		return false
	}
	return true
}
