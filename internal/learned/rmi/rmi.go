// Package rmi implements a two-stage Recursive Model Index (Kraska et
// al.): a linear root model selects one of L second-stage linear models,
// each of which predicts the position of the key in the sorted array
// within recorded signed error bounds. RMI is read-only: it has no
// insertion or retraining strategy (paper Table I).
package rmi

import (
	"sync/atomic"
	"time"

	"learnedpieces/internal/index"
	"learnedpieces/internal/pla"
	"learnedpieces/internal/search"
)

// Config controls the RMI shape.
type Config struct {
	// NumLeaves is the second-stage model count; <= 0 picks n/256.
	NumLeaves int
}

// DefaultConfig returns the configuration used by the benchmarks.
func DefaultConfig() Config { return Config{} }

// Index is the two-stage RMI over a flat sorted array.
type Index struct {
	cfg   Config
	keys  []uint64
	vals  []uint64
	model *pla.RMI // the two stages over keys

	builds  atomic.Int64
	buildNs atomic.Int64
}

// New returns an empty RMI; call BulkLoad before use.
func New(cfg Config) *Index { return &Index{cfg: cfg, model: pla.NewRMI(0)} }

// Name implements index.Index.
func (ix *Index) Name() string { return "rmi" }

// Len returns the number of stored entries.
func (ix *Index) Len() int { return len(ix.keys) }

// Insert is unsupported: RMI is a read-only learned index.
func (ix *Index) Insert(key, value uint64) error { return index.ErrReadOnly }

// InsertReplace implements index.Upserter: read-only as well.
func (ix *Index) InsertReplace(key, value uint64) (bool, error) { return false, index.ErrReadOnly }

// BulkLoad trains the two stages over sorted distinct keys.
func (ix *Index) BulkLoad(keys, values []uint64) error {
	t0 := time.Now()
	defer func() {
		ix.builds.Add(1)
		ix.buildNs.Add(time.Since(t0).Nanoseconds())
	}()
	ix.keys = keys
	ix.vals = values
	numLeaves := ix.cfg.NumLeaves
	if numLeaves <= 0 {
		numLeaves = max(len(keys)/256, 1)
	}
	ix.model = pla.NewRMI(numLeaves)
	ix.model.Build(keys)
	return nil
}

// Get returns the value stored under key using the two model stages and a
// bounded binary search within the leaf's recorded error band.
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
	n := len(ix.keys)
	if n == 0 {
		return 0, false
	}
	lo, hi := ix.model.Window(key)
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo >= hi {
		return 0, false
	}
	return search.FindBounded(ix.keys, key, lo, hi)
}

// GetBatch implements index.BatchGetter: stage one prediction per key,
// then resolve all the error windows with the interleaved lockstep
// kernel so the batch's leaf-array cache misses overlap.
func (ix *Index) GetBatch(keys []uint64, vals []uint64, found []bool) {
	n := len(ix.keys)
	for off := 0; off < len(keys); off += search.MaxLanes {
		end := off + search.MaxLanes
		if end > len(keys) {
			end = len(keys)
		}
		var b search.Batch
		for _, key := range keys[off:end] {
			if n == 0 {
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
// the same two model stages as Get. The leaf's error band is only
// guaranteed to contain keys that are present, so an absent range
// start falls back to a whole-array kernel search when the windowed
// result violates the lower-bound property.
func (ix *Index) lowerBound(key uint64) int {
	n := len(ix.keys)
	if n == 0 {
		return 0
	}
	lo, hi := ix.model.Window(key)
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	pos := search.LowerBound(ix.keys, key, lo, hi)
	if (pos > 0 && ix.keys[pos-1] >= key) || (pos < n && ix.keys[pos] < key) {
		pos = search.LowerBound(ix.keys, key, 0, n)
	}
	return pos
}

// Range implements index.Ranger: one model descent locates the lower
// bound, then the pooled cursor walks the flat sorted array.
func (ix *Index) Range(start uint64) index.Cursor {
	return index.NewSliceCursor(ix.keys, ix.vals, ix.lowerBound(start))
}

// AvgDepth reports the two model stages (Table II lists RMI as depth 2).
func (ix *Index) AvgDepth() float64 { return 2 }

// RetrainStats implements index.RetrainReporter. RMI has no incremental
// retraining strategy, so each "retrain" is a full BulkLoad — the model
// (re)build the recovery path pays (Fig 16).
func (ix *Index) RetrainStats() (count, totalNs int64) {
	return ix.builds.Load(), ix.buildNs.Load()
}

// Sizes reports the footprint: models are structure, the sorted arrays
// are keys/values.
func (ix *Index) Sizes() index.Sizes {
	return index.Sizes{
		Structure: ix.model.SizeBytes(),
		Keys:      int64(len(ix.keys)) * 8,
		Values:    int64(len(ix.vals)) * 8,
	}
}
