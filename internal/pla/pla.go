// Package pla implements the approximation-CDF algorithms that form the
// leaf-model dimension of learned indexes (paper §IV-A), and the
// structure pieces built from them (§IV-B). The algorithms:
//
//   - LSA: fixed-length segments, least-squares fit per segment (XIndex).
//   - OptPLA: optimal streaming piecewise-linear approximation with a
//     guaranteed maximum error (O'Rourke'81, as used by PGM-Index).
//   - GreedyPLA: the feasible-space-window greedy segmentation with a
//     guaranteed maximum error (FITing-tree).
//   - LSAGap: least squares with gaps — the model-based gapped layout of
//     ALEX, which changes the stored-key distribution so the CDF becomes
//     easier to approximate (see BuildLSAGap in gap.go).
//   - GreedySpline: the one-pass spline corridor of RadixSpline
//     (see spline.go).
//
// All algorithms map a sorted key array to positions; a Segment predicts
// the global position of a key and records its guaranteed or measured
// maximum error so lookups can bound their final binary search.
//
// The structure pieces (structure.go) locate the element of a sorted
// domain — a key array, or the first keys of leaves — that covers a
// key. Each is written once, so the structure core composes and §IV
// times is the one the hand-written indexes run:
//
//   - LRS: PGM-Index's recursive Opt-PLA levels (pgm's internal levels).
//   - RMI: the two-stage recursive model index (rmi, xindex's root).
//   - FitRouter: the inner node of ALEX's asymmetric tree (alex, and
//     core's ATS and HotATS).
package pla

import "sort"

// Model is the line from key to position that every learned index here
// predicts with: position ~= Slope*(key-FirstKey) + Intercept. Anchoring
// at FirstKey preserves float64 precision across the full uint64 key
// range.
type Model struct {
	FirstKey  uint64  // anchor key
	Slope     float64 // positions per key unit
	Intercept float64 // predicted position of FirstKey
}

// Predict returns the model's position for key, clamped to [0, n) for
// n > 0. The distance to the anchor is taken in uint64 and negated below
// it, and the clamp happens in float space, before the int conversion
// (which Go leaves to the platform out of range), so every key gets an
// answer in range and, for Slope >= 0, the answer never decreases as the
// key grows.
func (m Model) Predict(key uint64, n int) int {
	var d float64
	if key >= m.FirstKey {
		d = float64(key - m.FirstKey)
	} else {
		d = -float64(m.FirstKey - key)
	}
	p := m.Slope*d + m.Intercept
	if p >= float64(n) {
		return n - 1
	}
	if p >= 0 {
		return int(p)
	}
	return 0 // below the range, or NaN
}

// Segment is one linear model over a contiguous run of the sorted key
// array; its Intercept predicts a global position.
type Segment struct {
	Model
	Start  int // first covered global position (inclusive)
	End    int // last covered global position (exclusive)
	MaxErr int // error bound for Predict within [Start,End)
}

// Predict returns the estimated global position of key, clamped to the
// segment's range.
func (s Segment) Predict(key uint64) int { return max(s.Model.Predict(key, s.End), s.Start) }

// Local returns the segment's model re-anchored to predict positions in
// its own run, where Start is position 0.
func (s Segment) Local() Model {
	return Model{FirstKey: s.FirstKey, Slope: s.Slope, Intercept: s.Intercept - float64(s.Start)}
}

// FindSegment locates the segment covering key by binary search on
// FirstKey. It returns the last segment whose FirstKey <= key (or the
// first segment if key precedes all of them).
func FindSegment(segs []Segment, key uint64) *Segment {
	i := sort.Search(len(segs), func(i int) bool { return segs[i].FirstKey > key })
	if i == 0 {
		return &segs[0]
	}
	return &segs[i-1]
}

// Metrics summarises the quality of a segmentation over its source keys:
// the three properties the paper says a good approximation algorithm must
// deliver simultaneously (§V-A): few segments, low average error, bounded
// maximum error.
type Metrics struct {
	Segments int
	AvgErr   float64
	MaxErr   int
}

// Evaluate measures prediction error of segs against the keys they were
// built from.
func Evaluate(keys []uint64, segs []Segment) Metrics {
	m := Metrics{Segments: len(segs)}
	if len(keys) == 0 || len(segs) == 0 {
		return m
	}
	var sum float64
	si := 0
	for i, k := range keys {
		for si+1 < len(segs) && segs[si+1].Start <= i {
			si++
		}
		p := segs[si].Predict(k)
		e := p - i
		if e < 0 {
			e = -e
		}
		sum += float64(e)
		if e > m.MaxErr {
			m.MaxErr = e
		}
	}
	m.AvgErr = sum / float64(len(keys))
	return m
}

// BuildLSA divides keys into fixed-length segments of segLen keys and fits
// each with ordinary least squares. It guarantees nothing about the error;
// MaxErr on each returned segment is the measured maximum.
func BuildLSA(keys []uint64, segLen int) []Segment {
	if len(keys) == 0 {
		return nil
	}
	if segLen <= 0 {
		segLen = 1
	}
	segs := make([]Segment, 0, len(keys)/segLen+1)
	for start := 0; start < len(keys); start += segLen {
		end := start + segLen
		if end > len(keys) {
			end = len(keys)
		}
		segs = append(segs, fitLeastSquares(keys, start, end))
	}
	return segs
}

// FitLinear fits a least-squares line over keys[start:end] mapping keys
// to their global positions (exported for consumers such as ALEX inner
// nodes and the composer's structures).
func FitLinear(keys []uint64, start, end int) Segment {
	return fitLeastSquares(keys, start, end)
}

// lsq accumulates an ordinary least-squares fit y = slope*(key-x0) +
// intercept, anchored at the first key added so the sums keep float64
// precision across the uint64 range. Keys must be added in ascending
// order.
type lsq struct {
	x0                  uint64
	n, sx, sy, sxx, sxy float64
}

func (a *lsq) add(key uint64, y float64) {
	if a.n == 0 {
		a.x0 = key
	}
	x := float64(key - a.x0)
	a.n++
	a.sx += x
	a.sy += y
	a.sxx += x * x
	a.sxy += x * y
}

// line returns the fitted model; a single point (or keys too close for
// float64 to separate) fits a flat line through the mean.
func (a *lsq) line() (slope, intercept float64) {
	if a.n == 0 {
		return 0, 0
	}
	if denom := a.n*a.sxx - a.sx*a.sx; denom != 0 {
		slope = (a.n*a.sxy - a.sx*a.sy) / denom
	}
	return slope, (a.sy - slope*a.sx) / a.n
}

// fitLeastSquares fits y = slope*(x-x0) + intercept over keys[start:end]
// with y the global position, and measures the max error — a second pass
// only the packed layouts read (the gapped build fits with lsq alone).
func fitLeastSquares(keys []uint64, start, end int) Segment {
	var fit lsq
	for i := start; i < end; i++ {
		fit.add(keys[i], float64(i))
	}
	slope, intercept := fit.line()
	seg := Segment{Model: Model{FirstKey: fit.x0, Slope: slope, Intercept: intercept}, Start: start, End: end}
	for i := start; i < end; i++ {
		e := seg.Predict(keys[i]) - i
		if e < 0 {
			e = -e
		}
		if e > seg.MaxErr {
			seg.MaxErr = e
		}
	}
	return seg
}

// BuildGreedy segments keys with the FITing-tree feasible-space-window
// greedy algorithm: starting a segment at its first point, it maintains
// the interval of slopes that keep every subsequent point within eps of
// the line through the first point, and closes the segment when the
// interval empties. MaxErr <= eps is guaranteed.
func BuildGreedy(keys []uint64, eps int) []Segment {
	if len(keys) == 0 {
		return nil
	}
	if eps < 0 {
		eps = 0
	}
	fe := float64(eps)
	var segs []Segment
	start := 0
	for start < len(keys) {
		x0 := keys[start]
		slMin, slMax := 0.0, 0.0
		first := true
		end := start + 1
		for ; end < len(keys); end++ {
			dx := float64(keys[end] - x0)
			dy := float64(end - start)
			lo := (dy - fe) / dx
			hi := (dy + fe) / dx
			if first {
				slMin, slMax = lo, hi
				first = false
				continue
			}
			nMin, nMax := slMin, slMax
			if lo > nMin {
				nMin = lo
			}
			if hi < nMax {
				nMax = hi
			}
			if nMin > nMax {
				// The point does not fit; close the segment without
				// adopting its constraints.
				break
			}
			slMin, slMax = nMin, nMax
		}
		slope := 0.0
		if !first {
			slope = (slMin + slMax) / 2
		}
		segs = append(segs, clampedSegment(keys, start, end, slope, eps))
		start = end
	}
	return segs
}

// clampedSegment builds a segment with the given slope anchored at
// keys[start], choosing the intercept from the feasible interval so the
// error bound holds even after float rounding, and records MaxErr.
func clampedSegment(keys []uint64, start, end int, slope float64, eps int) Segment {
	x0 := keys[start]
	bLo, bHi := -1e300, 1e300
	for i := start; i < end; i++ {
		base := slope * float64(keys[i]-x0)
		lo := float64(i) - float64(eps) - base
		hi := float64(i) + float64(eps) - base
		if lo > bLo {
			bLo = lo
		}
		if hi < bHi {
			bHi = hi
		}
	}
	b := (bLo + bHi) / 2
	seg := Segment{Model: Model{FirstKey: x0, Slope: slope, Intercept: b}, Start: start, End: end}
	for i := start; i < end; i++ {
		e := seg.Predict(keys[i]) - i
		if e < 0 {
			e = -e
		}
		if e > seg.MaxErr {
			seg.MaxErr = e
		}
	}
	return seg
}
