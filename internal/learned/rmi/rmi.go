// Package rmi implements a two-stage Recursive Model Index (Kraska et
// al.): a linear root model selects one of L second-stage linear models,
// each of which predicts the position of the key in the sorted array
// within recorded signed error bounds. RMI is read-only: it has no
// insertion or retraining strategy (paper Table I).
package rmi

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"learnedpieces/internal/index"
	"learnedpieces/internal/parallel"
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

type leafModel struct {
	pla.Model
	minErr int32 // signed bounds: actual - predicted in [minErr, maxErr]
	maxErr int32
}

// Index is the two-stage RMI over a flat sorted array.
type Index struct {
	cfg    Config
	keys   []uint64
	vals   []uint64
	leaves []leafModel
	root   pla.Model // key -> leaf id, anchored at keys[0]

	builds  atomic.Int64
	buildNs atomic.Int64
}

// New returns an empty RMI; call BulkLoad before use.
func New(cfg Config) *Index { return &Index{cfg: cfg} }

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
	if len(keys) == 0 {
		ix.leaves = nil
		return nil
	}
	numLeaves := ix.cfg.NumLeaves
	if numLeaves <= 0 {
		numLeaves = len(keys) / 256
	}
	if numLeaves < 1 {
		numLeaves = 1
	}

	// Stage one: least squares of leafID = (i/n)*L over key. The sums
	// reduce over disjoint key chunks in parallel; per-chunk partials are
	// combined in chunk order so the result is deterministic for a given
	// worker count.
	ix.root = pla.Model{FirstKey: keys[0]}
	const minPerWorker = 16 << 10
	workers := parallel.Workers(len(keys) / minPerWorker)
	type sums struct{ sx, sy, sxx, sxy float64 }
	partial := make([]sums, workers)
	parallel.For(workers, len(keys), func(w, lo, hi int) {
		var p sums
		for i := lo; i < hi; i++ {
			x := float64(keys[i] - ix.root.FirstKey)
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
	denom := fn*sxx - sx*sx
	if denom != 0 {
		ix.root.Slope = (fn*sxy - sx*sy) / denom
	}
	ix.root.Intercept = (sy - ix.root.Slope*sx) / fn

	// Assign keys to leaves by the root model, then train each leaf on its
	// assigned range. Root predictions are monotone in the key (the least
	// squares slope over co-sorted x and y is never negative), so each
	// leaf owns a contiguous run and a worker can locate the start of its
	// leaf range by binary search instead of replaying the whole scan —
	// which is what lets disjoint leaf ranges train in parallel.
	ix.leaves = make([]leafModel, numLeaves)
	leafWorkers := len(keys) / minPerWorker
	if leafWorkers > numLeaves {
		leafWorkers = numLeaves
	}
	parallel.For(parallel.Workers(leafWorkers), numLeaves, func(_, leafLo, leafHi int) {
		start := sort.Search(len(keys), func(i int) bool {
			return ix.root.Predict(keys[i], numLeaves) >= leafLo
		})
		for leafID := leafLo; leafID < leafHi; leafID++ {
			end := start
			for end < len(keys) && ix.root.Predict(keys[end], numLeaves) == leafID {
				end++
			}
			ix.leaves[leafID] = trainLeaf(keys, start, end)
			start = end
		}
	})
	return nil
}

func trainLeaf(keys []uint64, start, end int) leafModel {
	if start >= end {
		return leafModel{Model: pla.Model{Intercept: float64(start)}}
	}
	m := leafModel{Model: pla.FitLinear(keys, start, end).Model, minErr: math.MaxInt32, maxErr: math.MinInt32}
	for i := start; i < end; i++ {
		e := int32(i - m.Predict(keys[i], len(keys)))
		if e < m.minErr {
			m.minErr = e
		}
		if e > m.maxErr {
			m.maxErr = e
		}
	}
	return m
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
	leaf := &ix.leaves[ix.root.Predict(key, len(ix.leaves))]
	p := leaf.Predict(key, n)
	lo := p + int(leaf.minErr)
	hi := p + int(leaf.maxErr) + 1
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
			leaf := &ix.leaves[ix.root.Predict(key, len(ix.leaves))]
			p := leaf.Predict(key, n)
			b.Add(ix.keys, key, p+int(leaf.minErr), p+int(leaf.maxErr)+1)
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
	leaf := &ix.leaves[ix.root.Predict(key, len(ix.leaves))]
	p := leaf.Predict(key, n)
	lo := p + int(leaf.minErr)
	hi := p + int(leaf.maxErr) + 1
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
		Structure: int64(len(ix.leaves))*32 + 24,
		Keys:      int64(len(ix.keys)) * 8,
		Values:    int64(len(ix.vals)) * 8,
	}
}

// MaxLeafError returns the largest leaf error band width; RMI has no
// a-priori bound (paper: "Unfixed"), this is the measured value.
func (ix *Index) MaxLeafError() int {
	worst := 0
	for i := range ix.leaves {
		if w := int(ix.leaves[i].maxErr) - int(ix.leaves[i].minErr); w > worst {
			worst = w
		}
	}
	return worst
}
