// Package rs implements RadixSpline (Kipf et al.): a single-pass learned
// index built from a greedy spline over the CDF plus a radix table over
// the r most significant key bits that narrows the binary search for the
// surrounding spline knots. RS is read-only (paper Table I) and is the
// fastest index to (re)build, which drives its Fig 16 recovery result.
// Its weakness — a fixed high-bit prefix that carries no information on
// skewed data such as FACE — is what Fig 11 demonstrates.
package rs

import (
	"sort"
	"sync/atomic"
	"time"

	"learnedpieces/internal/index"
	"learnedpieces/internal/parallel"
	"learnedpieces/internal/pla"
	"learnedpieces/internal/search"
)

// Config controls the RadixSpline build.
type Config struct {
	// RadixBits r: table size is 2^r. The paper selects 18 for best
	// performance. <= 0 picks 18 (capped so the table is not larger than
	// the key count).
	RadixBits int
	// MaxError is the spline error bound; <= 0 picks 32.
	MaxError int
}

// DefaultConfig returns the paper's configuration (r=18, eps=32).
func DefaultConfig() Config { return Config{RadixBits: 18, MaxError: 32} }

// Index is the RadixSpline over a flat sorted array.
type Index struct {
	cfg    Config
	keys   []uint64
	vals   []uint64
	spline []pla.SplinePoint
	table  []int32 // radix prefix -> first spline index with that prefix
	shift  uint
	eps    int

	builds  atomic.Int64
	buildNs atomic.Int64
}

// New returns an empty RadixSpline; call BulkLoad before use.
func New(cfg Config) *Index { return &Index{cfg: cfg} }

// Name implements index.Index.
func (ix *Index) Name() string { return "rs" }

// Len returns the number of stored entries.
func (ix *Index) Len() int { return len(ix.keys) }

// Insert is unsupported: RadixSpline is a read-only learned index.
func (ix *Index) Insert(key, value uint64) error { return index.ErrReadOnly }

// InsertReplace implements index.Upserter: read-only as well.
func (ix *Index) InsertReplace(key, value uint64) (bool, error) { return false, index.ErrReadOnly }

// BulkLoad builds the spline and radix table in one pass over the keys.
func (ix *Index) BulkLoad(keys, values []uint64) error {
	t0 := time.Now()
	defer func() {
		ix.builds.Add(1)
		ix.buildNs.Add(time.Since(t0).Nanoseconds())
	}()
	ix.keys = keys
	ix.vals = values
	if len(keys) == 0 {
		ix.spline = nil
		ix.table = nil
		return nil
	}
	bits := ix.cfg.RadixBits
	if bits <= 0 {
		bits = 18
	}
	for bits > 1 && 1<<bits > len(keys) {
		bits--
	}
	eps := ix.cfg.MaxError
	if eps <= 0 {
		eps = 32
	}
	ix.eps = eps
	ix.shift = uint(64 - bits)
	ix.spline = pla.BuildGreedySpline(keys, eps)

	// table[p] = index of the first spline point whose prefix >= p, so
	// the knots bracketing a key lie in [table[p], table[p+1]]. Prefix
	// ranges are independent once a worker seeds its cursor with a binary
	// search, so the fill fans out over contiguous table chunks and the
	// result is identical to the serial pass.
	size := 1<<bits + 1
	ix.table = make([]int32, size)
	const minPerWorker = 64 << 10
	parallel.For(parallel.Workers(size/minPerWorker), size-1, func(_, lo, hi int) {
		next := sort.Search(len(ix.spline), func(i int) bool {
			return int(ix.spline[i].Key>>ix.shift) >= lo
		})
		for p := lo; p < hi; p++ {
			for next < len(ix.spline) && int(ix.spline[next].Key>>ix.shift) < p {
				next++
			}
			ix.table[p] = int32(next)
		}
	})
	ix.table[size-1] = int32(len(ix.spline))
	return nil
}

// Get returns the value stored under key.
func (ix *Index) Get(key uint64) (uint64, bool) {
	i, ok := ix.find(key)
	if !ok {
		return 0, false
	}
	if ix.vals != nil {
		return ix.vals[i], true
	}
	return 0, true
}

func (ix *Index) find(key uint64) (int, bool) {
	lo, hi, ok := ix.window(key)
	if !ok {
		return 0, false
	}
	return search.FindBounded(ix.keys, key, lo, hi)
}

// window runs the radix-table + spline stages for one key and returns
// the ±eps last-mile window, or ok=false when the key is out of range.
// Knot bracketing finds the last spline point with Key <= key within
// the (narrow on uniform data, wide on skewed data) table window.
func (ix *Index) window(key uint64) (lo, hi int, ok bool) {
	n := len(ix.keys)
	if n == 0 || key < ix.keys[0] || key > ix.keys[n-1] {
		return 0, 0, false
	}
	p := int(key >> ix.shift)
	a, b := int(ix.table[p]), int(ix.table[p+1])
	w := ix.spline[a:b]
	j := a + sort.Search(len(w), func(i int) bool { return w[i].Key > key })
	if j == 0 {
		j = 1
	}
	pos := pla.InterpolateSpline(ix.spline, j-1, key)
	return pos - ix.eps, pos + ix.eps + 1, true
}

// GetBatch implements index.BatchGetter: the radix and spline stages
// run per key (they touch the small table and spline arrays), then the
// ±eps windows over the big key array — where the cache misses are —
// resolve in interleaved lockstep.
func (ix *Index) GetBatch(keys []uint64, vals []uint64, found []bool) {
	for off := 0; off < len(keys); off += search.MaxLanes {
		end := off + search.MaxLanes
		if end > len(keys) {
			end = len(keys)
		}
		var b search.Batch
		for _, key := range keys[off:end] {
			lo, hi, ok := ix.window(key)
			if !ok {
				b.Add(nil, key, 0, 0)
				continue
			}
			b.Add(ix.keys, key, lo, hi)
		}
		b.Run()
		for l := 0; l < b.Len(); l++ {
			i := off + l
			if !b.Found(l) {
				vals[i], found[i] = 0, false
				continue
			}
			found[i] = true
			if ix.vals != nil {
				vals[i] = ix.vals[b.Pos(l)]
			} else {
				vals[i] = 0
			}
		}
	}
}

// lowerBound locates the first position with keys[pos] >= key through
// the radix-table + spline window when the key is in range, falling
// back to a whole-array kernel search for out-of-range starts or when
// the ±eps window does not bracket an absent key's insertion point.
func (ix *Index) lowerBound(key uint64) int {
	n := len(ix.keys)
	if lo, hi, ok := ix.window(key); ok {
		if lo < 0 {
			lo = 0
		}
		if hi > n {
			hi = n
		}
		pos := search.LowerBound(ix.keys, key, lo, hi)
		if (pos == 0 || ix.keys[pos-1] < key) && (pos == n || ix.keys[pos] >= key) {
			return pos
		}
	}
	return search.LowerBound(ix.keys, key, 0, n)
}

// Range implements index.Ranger: one radix+spline descent locates the
// lower bound, then the pooled cursor walks the flat sorted array.
func (ix *Index) Range(start uint64) index.Cursor {
	return index.NewSliceCursor(ix.keys, ix.vals, ix.lowerBound(start))
}

// AvgDepth reports one table probe plus the spline stage.
func (ix *Index) AvgDepth() float64 { return 2 }

// RetrainStats implements index.RetrainReporter. RadixSpline has no
// incremental retraining, so each "retrain" is a full single-pass build —
// the fastest in the repository, which drives its Fig 16 recovery win.
func (ix *Index) RetrainStats() (count, totalNs int64) {
	return ix.builds.Load(), ix.buildNs.Load()
}

// Sizes reports the footprint: table + knots are structure.
func (ix *Index) Sizes() index.Sizes {
	return index.Sizes{
		Structure: int64(len(ix.table))*4 + int64(len(ix.spline))*16,
		Keys:      int64(len(ix.keys)) * 8,
		Values:    int64(len(ix.vals)) * 8,
	}
}

// TableWindow returns the average spline-search window width induced by
// the radix table — the quantity that explodes on FACE-like skew.
func (ix *Index) TableWindow() float64 {
	if len(ix.table) < 2 {
		return 0
	}
	var used, total int
	for p := 0; p+1 < len(ix.table); p++ {
		w := int(ix.table[p+1]) - int(ix.table[p])
		if w > 0 {
			used++
			total += w
		}
	}
	if used == 0 {
		return float64(len(ix.spline))
	}
	return float64(total) / float64(used)
}
