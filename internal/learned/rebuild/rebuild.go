// Package rebuild makes the rebuild-only learned indexes (RMI,
// RadixSpline) updatable: a sorted delta buffer with tombstones absorbs
// writes in front of the bulk-loaded inner index, and a full buffer
// triggers a complete rebuild — the "retrain the whole index" strategy
// the paper attributes to these structures (§II-B: no insertion or
// retraining strategy of their own, so updates mean rebuilding). With a
// retrain pool attached the rebuild runs in the background against a
// snapshot while a fresh buffer keeps absorbing writes, taking the
// O(n) rebuild off the Put tail.
package rebuild

import (
	"learnedpieces/internal/index"
	"learnedpieces/internal/learned/delta"
	"learnedpieces/internal/retrain"
)

// Inner is the contract the wrapped index must satisfy: an index with
// batch lookups.
type Inner interface {
	index.Index
	index.BatchGetter
}

// Config controls the wrapper.
type Config struct {
	// Threshold is the delta-buffer size that triggers a full rebuild;
	// <= 0 picks 4096. Larger values amortize the O(n) rebuild over
	// more inserts at the cost of a longer linear buffer search.
	Threshold int
}

// DefaultConfig returns the configuration used by the benchmarks.
func DefaultConfig() Config { return Config{Threshold: 4096} }

func (c *Config) normalize() {
	if c.Threshold <= 0 {
		c.Threshold = 4096
	}
}

// Index wraps a rebuild-only inner index with a delta buffer.
//
// The base key/value arrays passed to the inner index's BulkLoad are
// retained: a rebuild merges them with the frozen buffer into fresh
// arrays and bulk-loads a brand-new inner instance, so the live inner
// index and its arrays are never mutated — which is what lets the
// background rebuild share them with concurrent readers.
type Index struct {
	name     string
	newInner func() Inner
	buf      delta.Buffer[*base]
}

// base is the layer under the buffer: an inner index and the sorted,
// tombstone-free arrays it was bulk-loaded from. A rebuild replaces both.
type base struct {
	inner Inner
	run   delta.Run
}

// Get implements delta.Base.
func (b *base) Get(key uint64) (uint64, bool) { return b.inner.Get(key) }

// New returns an empty wrapper; name is the registry name (the inner
// index is constructed on demand, so its own Name is not reused).
func New(name string, cfg Config, newInner func() Inner) *Index {
	cfg.normalize()
	ix := &Index{name: name, newInner: newInner}
	ix.buf.Init(cfg.Threshold, ix.rebuild)
	ix.buf.Load(&base{inner: newInner()}, 0)
	return ix
}

// rebuild is one full retrain: the frozen buffer merged over the base
// arrays (newest wins, tombstones dropped — nothing is older than the
// base), bulk-loaded into a fresh inner index.
func (ix *Index) rebuild(frozen delta.Run, old *base) *base {
	m := delta.Merge(frozen, old.run, false)
	in := ix.newInner()
	if err := in.BulkLoad(m.Keys, m.Vals); err != nil {
		// Merge emits strictly increasing keys, which every Inner accepts;
		// a refusal means the merge invariant broke.
		panic("rebuild: merged base refused by inner: " + err.Error())
	}
	return &base{inner: in, run: m}
}

// Name implements index.Index.
func (ix *Index) Name() string { return ix.name }

// RetrainStats implements index.RetrainReporter: every full rebuild is
// one retraining action.
func (ix *Index) RetrainStats() (int64, int64) { return ix.buf.RetrainStats() }

// SetRetrainPool implements index.AsyncRetrainer: subsequent full
// rebuilds run on the pool.
func (ix *Index) SetRetrainPool(p *retrain.Pool) { ix.buf.SetPool(p) }

// DrainRetrains implements index.AsyncRetrainer: wait for an in-flight
// rebuild, install it, and rebuild again until the buffer is below
// Threshold. Must run on the writer timeline.
func (ix *Index) DrainRetrains() { ix.buf.Drain() }

// BulkLoad loads the sorted keys into a fresh inner index.
func (ix *Index) BulkLoad(keys, values []uint64) error {
	in := ix.newInner()
	ix.buf.Load(&base{inner: in, run: delta.Run{Keys: keys, Vals: values}}, len(keys))
	return in.BulkLoad(keys, values)
}

// Insert stores value under key, replacing any existing value.
func (ix *Index) Insert(key, value uint64) error {
	_, err := ix.InsertReplace(key, value)
	return err
}

// InsertReplace implements index.Upserter.
func (ix *Index) InsertReplace(key, value uint64) (bool, error) {
	return ix.buf.Upsert(key, value, false), nil
}

// Delete inserts a tombstone and reports whether the key was live.
func (ix *Index) Delete(key uint64) bool { return ix.buf.Upsert(key, 0, true) }

// Get returns the value stored under key (buffer, then the frozen
// buffer of an in-flight rebuild, then the inner index).
func (ix *Index) Get(key uint64) (uint64, bool) { return ix.buf.Get(key) }

// GetBatch implements index.BatchGetter with the same shadowing order
// as Get: the inner index's batch path answers every lane, then the
// lanes the buffers hold are overwritten. Resolving the buffers first
// and handing the inner a compacted sub-batch would need scratch
// slices, and a slice passed through the Inner interface escapes.
func (ix *Index) GetBatch(keys []uint64, vals []uint64, found []bool) {
	ix.buf.Base.inner.GetBatch(keys, vals, found)
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
func (ix *Index) Len() int { return ix.buf.Len() }

// Range implements index.Ranger with a pooled merge cursor over the
// three layers (buffer, frozen buffer, base arrays, newest shadowing
// oldest). All three are flat sorted slices that stay immutable while
// the single-writer contract holds, so the shared merge cursor applies
// directly; positioning is one binary search per layer.
func (ix *Index) Range(start uint64) index.Cursor {
	layers := ix.buf.AppendLayers(make([]index.MergeLayer, 0, 3), start)
	return index.NewMergeCursor(ix.buf.Base.run.AppendLayer(layers, start))
}

// AvgDepth delegates to the inner index when it reports one.
func (ix *Index) AvgDepth() float64 {
	if d, ok := index.DepthOf(ix.buf.Base.inner); ok {
		return d
	}
	return 1
}

// Sizes reports the inner footprint plus the buffer layers.
func (ix *Index) Sizes() index.Sizes {
	s, b := ix.buf.Base.inner.Sizes(), ix.buf.Sizes()
	s.Structure += b.Structure
	s.Keys += b.Keys
	s.Values += b.Values
	return s
}
