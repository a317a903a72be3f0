package pla

import (
	"sort"

	"learnedpieces/internal/parallel"
)

// GreedySpline implements the one-pass spline corridor used by
// RadixSpline: it selects a subset of the data points ("spline points")
// such that linear interpolation between consecutive spline points is
// within eps of every data point's true position.

// SplinePoint is a knot of the spline: an actual data key and its
// position in the sorted array.
type SplinePoint struct {
	Key uint64
	Pos int
}

// BuildGreedySpline returns the spline knots for keys with the given
// error bound. The first and last keys are always knots.
func BuildGreedySpline(keys []uint64, eps int) []SplinePoint {
	if len(keys) == 0 {
		return nil
	}
	if eps < 0 {
		eps = 0
	}
	fe := float64(eps)
	pts := []SplinePoint{{keys[0], 0}}
	if len(keys) == 1 {
		return pts
	}
	base := pts[0]
	var lo, hi float64
	haveCorridor := false
	for i := 1; i < len(keys); i++ {
		dx := float64(keys[i] - base.Key)
		dy := float64(i - base.Pos)
		pLo := (dy - fe) / dx
		pHi := (dy + fe) / dx
		if !haveCorridor {
			lo, hi = pLo, pHi
			haveCorridor = true
			continue
		}
		// The candidate knot must itself lie inside the corridor: only then
		// does the straight segment base->candidate stay within eps of every
		// intermediate point.
		s := dy / dx
		if s < lo || s > hi {
			// The previous point becomes a knot; restart the corridor from it.
			base = SplinePoint{keys[i-1], i - 1}
			pts = append(pts, base)
			dx = float64(keys[i] - base.Key)
			dy = float64(i - base.Pos)
			lo = (dy - fe) / dx
			hi = (dy + fe) / dx
			continue
		}
		if pLo > lo {
			lo = pLo
		}
		if pHi < hi {
			hi = pHi
		}
	}
	last := SplinePoint{keys[len(keys)-1], len(keys) - 1}
	if pts[len(pts)-1].Key != last.Key {
		pts = append(pts, last)
	}
	return pts
}

// InterpolateSpline predicts the position of key from the two knots
// surrounding it. idx must satisfy pts[idx].Key <= key <= pts[idx+1].Key
// (idx == len(pts)-1 is allowed for the final key).
func InterpolateSpline(pts []SplinePoint, idx int, key uint64) int {
	if idx >= len(pts)-1 {
		return pts[len(pts)-1].Pos
	}
	a, b := pts[idx], pts[idx+1]
	if b.Key == a.Key {
		return a.Pos
	}
	frac := float64(key-a.Key) / float64(b.Key-a.Key)
	return a.Pos + int(frac*float64(b.Pos-a.Pos))
}

// RadixSpline is RadixSpline's model (Kipf et al.): greedy spline knots
// at error eps over the keys, and a radix table over their r most
// significant bits that narrows the search for the two knots bracketing
// a key. The table is why it is the fastest model to build, and why it
// fails on skew: a fixed high-bit prefix carries no information on
// FACE-like keys, so the table windows widen (TableWindow, Fig 11).
type RadixSpline struct {
	bits, eps int
	spline    []SplinePoint
	table     []int32 // radix prefix -> first knot with that prefix
	shift     uint
}

// NewRadixSpline returns a RadixSpline with 2^bits table slots (<= 0:
// 18, the paper's choice; capped at the key count by Build) and spline
// error eps (<= 0: 32).
func NewRadixSpline(bits, eps int) *RadixSpline {
	if bits <= 0 {
		bits = 18
	}
	if eps <= 0 {
		eps = 32
	}
	return &RadixSpline{bits: bits, eps: eps}
}

// Build fits the knots and fills the table in one pass over sorted
// distinct keys.
func (s *RadixSpline) Build(keys []uint64) {
	s.spline, s.table = nil, nil
	if len(keys) == 0 {
		return
	}
	bits := s.bits
	for bits > 1 && 1<<bits > len(keys) {
		bits--
	}
	s.shift = uint(64 - bits)
	s.spline = BuildGreedySpline(keys, s.eps)

	// table[p] = index of the first knot whose prefix >= p, so the knots
	// bracketing a key lie in [table[p], table[p+1]]. Prefix ranges are
	// independent once a worker seeds its cursor with a binary search, so
	// the fill fans out over contiguous table chunks and the result is
	// identical to the serial pass.
	size := 1<<bits + 1
	s.table = make([]int32, size)
	const minPerWorker = 64 << 10
	parallel.For(parallel.Workers(size/minPerWorker), size-1, func(_, lo, hi int) {
		next := sort.Search(len(s.spline), func(i int) bool {
			return int(s.spline[i].Key>>s.shift) >= lo
		})
		for p := lo; p < hi; p++ {
			for next < len(s.spline) && int(s.spline[next].Key>>s.shift) < p {
				next++
			}
			s.table[p] = int32(next)
		}
	})
	s.table[size-1] = int32(len(s.spline))
}

// Window returns the positions [lo, hi), unclamped, where key lies if it
// is in the keys last built. key must lie between the first and last of
// them: the knots bracketing it are found within its table window.
func (s *RadixSpline) Window(key uint64) (lo, hi int) {
	p := int(key >> s.shift)
	a, b := int(s.table[p]), int(s.table[p+1])
	w := s.spline[a:b]
	j := a + sort.Search(len(w), func(i int) bool { return w[i].Key > key })
	if j == 0 {
		j = 1
	}
	pos := InterpolateSpline(s.spline, j-1, key)
	return pos - s.eps, pos + s.eps + 1
}

// SizeBytes returns the table and the knots.
func (s *RadixSpline) SizeBytes() int64 { return int64(len(s.table))*4 + int64(len(s.spline))*16 }

// TableWindow returns the average knot-search window width the radix
// table leaves per used prefix: the quantity that explodes on FACE-like
// skew.
func (s *RadixSpline) TableWindow() float64 {
	if len(s.table) < 2 {
		return 0
	}
	var used, total int
	for p := 0; p+1 < len(s.table); p++ {
		w := int(s.table[p+1]) - int(s.table[p])
		if w > 0 {
			used++
			total += w
		}
	}
	if used == 0 {
		return float64(len(s.spline))
	}
	return float64(total) / float64(used)
}
