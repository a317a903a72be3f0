package flat

import (
	"learnedpieces/internal/index"
	"learnedpieces/internal/learned/delta"
	"learnedpieces/internal/retrain"
)

// DeltaConfig controls the delta buffer.
type DeltaConfig struct {
	// Threshold is the delta-buffer size that triggers a full rebuild;
	// <= 0 picks 4096. Larger values amortize the O(n) rebuild over
	// more inserts at the cost of a longer buffer search.
	Threshold int
}

// Delta makes a flat index updatable: a sorted delta buffer with
// tombstones absorbs writes in front of it, and a full buffer triggers a
// complete rebuild, the "retrain the whole index" strategy the paper
// attributes to these structures (§II-B: no insertion or retraining
// strategy of their own, so updates mean rebuilding). With a retrain
// pool attached the rebuild runs in the background against a snapshot
// while a fresh buffer keeps absorbing writes, taking the O(n) rebuild
// off the Put tail.
//
// A rebuild merges the frozen buffer with the base index's arrays into
// fresh ones and loads a new index over them, so the live base and its
// arrays are never mutated, which is what lets the background rebuild
// share them with concurrent readers.
type Delta[M Model] struct {
	buf delta.Buffer[*Index[M]]
}

// NewDelta returns the wrapper over inner, named after it with a
// "-delta" suffix.
func NewDelta[M Model](inner *Index[M], cfg DeltaConfig) *Delta[M] {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 4096
	}
	ix := &Delta[M]{}
	ix.buf.Init(cfg.Threshold, rebuild[M])
	ix.buf.Load(inner, inner.Len())
	return ix
}

// rebuild is one full retrain: the frozen buffer merged over the base
// arrays (newest wins, tombstones dropped: nothing is older than the
// base), loaded into a new index.
func rebuild[M Model](frozen delta.Run, old *Index[M]) *Index[M] {
	m := delta.Merge(frozen, delta.Run{Keys: old.keys, Vals: old.vals}, false)
	return old.load(m.Keys, m.Vals)
}

// Name implements index.Index.
func (ix *Delta[M]) Name() string { return ix.buf.Base.name + "-delta" }

// RetrainStats implements index.RetrainReporter: every full rebuild is
// one retraining action.
func (ix *Delta[M]) RetrainStats() (int64, int64) { return ix.buf.RetrainStats() }

// SetRetrainPool implements index.AsyncRetrainer: subsequent full
// rebuilds run on the pool.
func (ix *Delta[M]) SetRetrainPool(p *retrain.Pool) { ix.buf.SetPool(p) }

// DrainRetrains implements index.AsyncRetrainer: wait for an in-flight
// rebuild, install it, and rebuild again until the buffer is below
// Threshold. Must run on the writer timeline.
func (ix *Delta[M]) DrainRetrains() { ix.buf.Drain() }

// BulkLoad loads the sorted keys into a new base index.
func (ix *Delta[M]) BulkLoad(keys, values []uint64) error {
	ix.buf.Load(ix.buf.Base.load(keys, values), len(keys))
	return nil
}

// Insert stores value under key, replacing any existing value.
func (ix *Delta[M]) Insert(key, value uint64) error {
	_, err := ix.InsertReplace(key, value)
	return err
}

// InsertReplace implements index.Upserter.
func (ix *Delta[M]) InsertReplace(key, value uint64) (bool, error) {
	return ix.buf.Upsert(key, value, false), nil
}

// Delete inserts a tombstone and reports whether the key was live.
func (ix *Delta[M]) Delete(key uint64) bool { return ix.buf.Upsert(key, 0, true) }

// Get returns the value stored under key (buffer, then the frozen
// buffer of an in-flight rebuild, then the base index).
func (ix *Delta[M]) Get(key uint64) (uint64, bool) { return ix.buf.Get(key) }

// GetBatch implements index.BatchGetter with the same shadowing order
// as Get: the base index's batch path answers every lane, then the
// lanes the buffers hold are overwritten.
func (ix *Delta[M]) GetBatch(keys []uint64, vals []uint64, found []bool) {
	ix.buf.Base.GetBatch(keys, vals, found)
	if len(ix.buf.Live.Keys) == 0 && len(ix.buf.Frozen.Keys) == 0 {
		return
	}
	for i, key := range keys {
		if v, live, ok := ix.buf.Find(key); ok {
			vals[i], found[i] = v, live
		}
	}
}

// Len returns the number of live entries.
func (ix *Delta[M]) Len() int { return ix.buf.Len() }

// Range implements index.Ranger with a pooled merge cursor over the
// three layers (buffer, frozen buffer, base arrays, newest shadowing
// oldest). All three are flat sorted slices that stay immutable while
// the single-writer contract holds; the base is positioned through its
// model, the buffers by binary search.
func (ix *Delta[M]) Range(start uint64) index.Cursor {
	c := index.OpenMergeCursor()
	c.Layers = ix.buf.AppendLayers(c.Layers, start)
	b := ix.buf.Base
	if pos := b.lowerBound(start); pos < len(b.keys) {
		c.Layers = append(c.Layers, index.MergeLayer{Keys: b.keys, Vals: b.vals, Pos: pos})
	}
	return c
}

// AvgDepth reports the base index's.
func (ix *Delta[M]) AvgDepth() float64 { return ix.buf.Base.AvgDepth() }

// Sizes reports the base index's footprint plus the buffer layers.
func (ix *Delta[M]) Sizes() index.Sizes {
	s, b := ix.buf.Base.Sizes(), ix.buf.Sizes()
	s.Structure += b.Structure
	s.Keys += b.Keys
	s.Values += b.Values
	return s
}
