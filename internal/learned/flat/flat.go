// Package flat is the read-only learned index over one sorted array
// (paper Table I's RMI and RadixSpline): a model predicts a window of
// positions, and a last-mile search inside it finds the key. Neither
// model has an insertion or retraining strategy of its own ("-"), so
// Delta makes either updatable by rebuilding the whole index.
package flat

import (
	"sync/atomic"
	"time"

	"learnedpieces/internal/index"
	"learnedpieces/internal/pla"
	"learnedpieces/internal/search"
)

// Model predicts where a key lies among the sorted keys it was built
// over: the positions [lo, hi), unclamped, for a key between the first
// and the last of them. pla.RMI and pla.RadixSpline are the two.
type Model interface {
	Window(key uint64) (lo, hi int)
	SizeBytes() int64
}

// RMIConfig controls the two-stage RMI (Kraska et al.).
type RMIConfig struct {
	// NumLeaves is the second-stage model count; <= 0 picks n/256.
	NumLeaves int
}

// RSConfig controls the RadixSpline (Kipf et al.) build.
type RSConfig struct {
	// RadixBits r: table size is 2^r. The paper selects 18 for best
	// performance. <= 0 picks 18 (capped so the table is not larger than
	// the key count).
	RadixBits int
	// MaxError is the spline error bound; <= 0 picks 32.
	MaxError int
}

// Index is a model over a flat sorted array.
type Index[M Model] struct {
	name  string
	fit   func(keys []uint64) M // a fresh model over keys
	keys  []uint64
	vals  []uint64
	model M

	builds  atomic.Int64
	buildNs atomic.Int64
}

// NewRMI returns an empty two-stage RMI: a root line picks one of the
// leaf lines, whose recorded error band bounds the last-mile search.
func NewRMI(cfg RMIConfig) *Index[*pla.RMI] {
	return newIndex("rmi", func(keys []uint64) *pla.RMI {
		leaves := cfg.NumLeaves
		if leaves <= 0 {
			leaves = max(len(keys)/256, 1)
		}
		m := pla.NewRMI(leaves)
		m.Build(keys)
		return m
	})
}

// NewRS returns an empty RadixSpline, the fastest index to (re)build,
// which drives its Fig 16 recovery result; its radix table on skewed
// keys is what Fig 11 demonstrates.
func NewRS(cfg RSConfig) *Index[*pla.RadixSpline] {
	return newIndex("rs", func(keys []uint64) *pla.RadixSpline {
		m := pla.NewRadixSpline(cfg.RadixBits, cfg.MaxError)
		m.Build(keys)
		return m
	})
}

func newIndex[M Model](name string, fit func([]uint64) M) *Index[M] {
	return &Index[M]{name: name, fit: fit, model: fit(nil)}
}

// load returns a new index built like ix over keys and vals; ix is
// left as it was.
func (ix *Index[M]) load(keys, vals []uint64) *Index[M] {
	return &Index[M]{name: ix.name, fit: ix.fit, keys: keys, vals: vals, model: ix.fit(keys)}
}

// Name implements index.Index.
func (ix *Index[M]) Name() string { return ix.name }

// Len returns the number of stored entries.
func (ix *Index[M]) Len() int { return len(ix.keys) }

// Insert is unsupported: the index is read-only.
func (ix *Index[M]) Insert(key, value uint64) error { return index.ErrReadOnly }

// InsertReplace implements index.Upserter: read-only as well.
func (ix *Index[M]) InsertReplace(key, value uint64) (bool, error) { return false, index.ErrReadOnly }

// ReadOnly marks the index read-only to index.CapsOf.
func (ix *Index[M]) ReadOnly() {}

// BulkLoad fits the model over sorted distinct keys.
func (ix *Index[M]) BulkLoad(keys, values []uint64) error {
	t0 := time.Now()
	ix.keys, ix.vals, ix.model = keys, values, ix.fit(keys)
	ix.builds.Add(1)
	ix.buildNs.Add(time.Since(t0).Nanoseconds())
	return nil
}

// inRange reports whether key lies between the first and the last key,
// where the model's window is defined; no other key can be present.
func (ix *Index[M]) inRange(key uint64) bool {
	n := len(ix.keys)
	return n > 0 && key >= ix.keys[0] && key <= ix.keys[n-1]
}

// Get returns the value stored under key: the model's window, then a
// bounded search inside it.
func (ix *Index[M]) Get(key uint64) (uint64, bool) {
	i, ok := ix.find(key)
	if !ok {
		return 0, false
	}
	if ix.vals != nil {
		return ix.vals[i], true
	}
	return 0, true
}

func (ix *Index[M]) find(key uint64) (int, bool) {
	if !ix.inRange(key) {
		return 0, false
	}
	lo, hi := ix.model.Window(key)
	return search.FindBounded(ix.keys, key, lo, hi)
}

// GetBatch implements index.BatchGetter: the model runs per key (it
// touches its own small arrays), then the windows over the big key
// array, where the cache misses are, resolve in interleaved lockstep.
func (ix *Index[M]) GetBatch(keys []uint64, vals []uint64, found []bool) {
	for off := 0; off < len(keys); off += search.MaxLanes {
		end := min(off+search.MaxLanes, len(keys))
		var b search.Batch
		for _, key := range keys[off:end] {
			if !ix.inRange(key) {
				b.Add(nil, key, 0, 0)
				continue
			}
			lo, hi := ix.model.Window(key)
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
// the model's window. A window is only guaranteed to hold keys that are
// present, so an out-of-range key, or a window that does not bracket an
// absent key's insertion point, falls back to a whole-array search.
func (ix *Index[M]) lowerBound(key uint64) int {
	n := len(ix.keys)
	if ix.inRange(key) {
		lo, hi := ix.model.Window(key)
		pos := search.LowerBound(ix.keys, key, lo, hi)
		if (pos == 0 || ix.keys[pos-1] < key) && (pos == n || ix.keys[pos] >= key) {
			return pos
		}
	}
	return search.LowerBound(ix.keys, key, 0, n)
}

// Range implements index.Ranger: one model descent locates the lower
// bound, then the pooled cursor walks the flat sorted array.
func (ix *Index[M]) Range(start uint64) index.Cursor {
	return index.NewSliceCursor(ix.keys, ix.vals, ix.lowerBound(start))
}

// AvgDepth reports the two model stages (Table II lists both at depth
// 2): RMI's root and leaf lines, RadixSpline's table and knots.
func (ix *Index[M]) AvgDepth() float64 { return 2 }

// RetrainStats implements index.RetrainReporter. With no incremental
// retraining, each "retrain" is a full BulkLoad: the model (re)build
// the recovery path pays (Fig 16).
func (ix *Index[M]) RetrainStats() (count, totalNs int64) {
	return ix.builds.Load(), ix.buildNs.Load()
}

// Sizes reports the footprint: the model is structure, the sorted
// arrays are keys/values.
func (ix *Index[M]) Sizes() index.Sizes {
	return index.Sizes{
		Structure: ix.model.SizeBytes(),
		Keys:      int64(len(ix.keys)) * 8,
		Values:    int64(len(ix.vals)) * 8,
	}
}
