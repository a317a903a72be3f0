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
	"sync/atomic"
	"time"

	"learnedpieces/internal/epoch"
	"learnedpieces/internal/index"
	"learnedpieces/internal/retrain"
	"learnedpieces/internal/search"
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
	cfg      Config
	newInner func() Inner
	inner    Inner

	baseK []uint64
	baseV []uint64

	bufK []uint64
	bufV []uint64
	bufD []bool

	length int // live entries; every write knows whether it added or removed one

	// Background rebuilds (index.AsyncRetrainer): the full buffer is
	// frozen, the pool merges it with the base arrays and bulk-loads a
	// replacement inner aside; lookups read buf -> frozen -> inner. The
	// replacement is deposited in the inbox and installed on the writer
	// timeline (single-writer contract).
	pool       *retrain.Pool
	frozenK    []uint64
	frozenV    []uint64
	frozenD    []bool
	rebuilding bool
	gen        uint64 // bumped when a pending deposit becomes invalid (BulkLoad)
	inbox      retrain.Inbox[result]

	retrains  atomic.Int64
	retrainNs atomic.Int64
}

// result is one finished background rebuild, tagged with the generation
// it was built from.
type result struct {
	gen   uint64
	inner Inner
	baseK []uint64
	baseV []uint64
}

// New returns an empty wrapper; name is the registry name (the inner
// index is constructed on demand, so its own Name is not reused).
func New(name string, cfg Config, newInner func() Inner) *Index {
	cfg.normalize()
	return &Index{name: name, cfg: cfg, newInner: newInner, inner: newInner()}
}

// Name implements index.Index.
func (ix *Index) Name() string { return ix.name }

// RetrainStats implements index.RetrainReporter: every full rebuild is
// one retraining action.
func (ix *Index) RetrainStats() (int64, int64) {
	return ix.retrains.Load(), ix.retrainNs.Load()
}

// SetRetrainPool implements index.AsyncRetrainer: subsequent full
// rebuilds run on the pool.
func (ix *Index) SetRetrainPool(p *retrain.Pool) { ix.pool = p }

// DrainRetrains implements index.AsyncRetrainer: wait for an in-flight
// rebuild and install it. Must run on the writer timeline.
func (ix *Index) DrainRetrains() {
	ix.pool.Drain()
	ix.install()
}

// install applies a deposited rebuild; stale deposits (the index was
// bulk-loaded after the snapshot) are dropped.
func (ix *Index) install() {
	for _, dep := range ix.inbox.TakeAll() {
		if dep.gen != ix.gen {
			continue
		}
		// Retire the displaced inner structure: a lock-free reader that
		// loaded it through a store view finishes traversing it before
		// the epoch manager lets it go.
		epoch.Retire(ix.inner)
		ix.inner = dep.inner
		ix.baseK, ix.baseV = dep.baseK, dep.baseV
		ix.frozenK, ix.frozenV, ix.frozenD = nil, nil, nil
		ix.rebuilding = false
	}
}

// BulkLoad loads the sorted keys into a fresh inner index.
func (ix *Index) BulkLoad(keys, values []uint64) error {
	ix.gen++ // a pending rebuild deposit no longer applies
	ix.frozenK, ix.frozenV, ix.frozenD = nil, nil, nil
	ix.rebuilding = false
	ix.bufK, ix.bufV, ix.bufD = nil, nil, nil
	ix.baseK, ix.baseV = keys, values
	ix.length = len(keys)
	ix.inner = ix.newInner()
	return ix.inner.BulkLoad(keys, values)
}

// Insert stores value under key, replacing any existing value.
func (ix *Index) Insert(key, value uint64) error {
	_, err := ix.InsertReplace(key, value)
	return err
}

// InsertReplace implements index.Upserter.
func (ix *Index) InsertReplace(key, value uint64) (bool, error) {
	ix.install()
	return ix.bufUpsert(key, value, false), nil
}

// Delete inserts a tombstone and reports whether the key was live.
func (ix *Index) Delete(key uint64) bool {
	ix.install()
	return ix.bufUpsert(key, 0, true)
}

// bufUpsert writes (key,value,dead) into the sorted buffer, scheduling
// a rebuild when it reaches Threshold, and reports whether key was live
// before. The buffer answers that itself for a key it already holds;
// only a key new to it asks the layers below. A tombstone for a key that
// is not live is not written.
func (ix *Index) bufUpsert(key, value uint64, dead bool) bool {
	i, ok := search.Find(ix.bufK, key)
	var wasLive bool
	if ok {
		wasLive = !ix.bufD[i]
	} else {
		_, wasLive = ix.getBelow(key)
	}
	switch {
	case dead && !wasLive:
		return false
	case dead:
		ix.length--
	case !wasLive:
		ix.length++
	}
	if ok {
		ix.bufV[i] = value
		ix.bufD[i] = dead
		return wasLive
	}
	ix.bufK = append(ix.bufK, 0)
	ix.bufV = append(ix.bufV, 0)
	ix.bufD = append(ix.bufD, false)
	copy(ix.bufK[i+1:], ix.bufK[i:])
	copy(ix.bufV[i+1:], ix.bufV[i:])
	copy(ix.bufD[i+1:], ix.bufD[i:])
	ix.bufK[i] = key
	ix.bufV[i] = value
	ix.bufD[i] = dead
	if len(ix.bufK) >= ix.cfg.Threshold {
		ix.scheduleRebuild()
	}
	return wasLive
}

// scheduleRebuild routes the full rebuild to the pool when one is
// attached, and runs it inline otherwise. While a background rebuild is
// in flight the live buffer keeps absorbing writes (it grows past
// Threshold until the deposit installs) — the index never blocks.
func (ix *Index) scheduleRebuild() {
	if ix.pool == nil {
		start := time.Now()
		mk, mv := mergeBase(ix.baseK, ix.baseV, ix.bufK, ix.bufV, ix.bufD)
		ix.bufK, ix.bufV, ix.bufD = nil, nil, nil
		ix.baseK, ix.baseV = mk, mv
		ix.inner = ix.newInner()
		if err := ix.inner.BulkLoad(mk, mv); err != nil {
			panic("rebuild: merged base refused by inner: " + err.Error())
		}
		ix.retrains.Add(1)
		ix.retrainNs.Add(time.Since(start).Nanoseconds())
		return
	}
	if ix.rebuilding {
		return
	}
	ix.rebuilding = true
	ix.frozenK, ix.frozenV, ix.frozenD = ix.bufK, ix.bufV, ix.bufD
	ix.bufK, ix.bufV, ix.bufD = nil, nil, nil
	fk, fv, fd := ix.frozenK, ix.frozenV, ix.frozenD
	baseK, baseV := ix.baseK, ix.baseV
	gen := ix.gen
	newInner := ix.newInner
	ix.pool.Submit(ix, func() {
		start := time.Now()
		mk, mv := mergeBase(baseK, baseV, fk, fv, fd)
		in := newInner()
		if err := in.BulkLoad(mk, mv); err != nil {
			// mergeBase emits strictly increasing keys, which every Inner
			// accepts; a refusal means the merge invariant broke.
			panic("rebuild: merged base refused by inner: " + err.Error())
		}
		ix.retrains.Add(1)
		ix.retrainNs.Add(time.Since(start).Nanoseconds())
		ix.inbox.Put(result{gen: gen, inner: in, baseK: mk, baseV: mv})
	})
	ix.install() // in sync mode the deposit is already waiting
}

// mergeBase merges the sorted base arrays (no tombstones) with the
// sorted delta triple (newest wins; dead entries dropped — the base is
// the oldest layer, so nothing below can resurrect them).
func mergeBase(bk, bv []uint64, dk, dv []uint64, dd []bool) ([]uint64, []uint64) {
	mk := make([]uint64, 0, len(bk)+len(dk))
	mv := make([]uint64, 0, len(bk)+len(dk))
	i, j := 0, 0
	for i < len(bk) || j < len(dk) {
		switch {
		case j >= len(dk) || (i < len(bk) && bk[i] < dk[j]):
			mk = append(mk, bk[i])
			mv = append(mv, bv[i])
			i++
		case i >= len(bk) || dk[j] < bk[i]:
			if !dd[j] {
				mk = append(mk, dk[j])
				mv = append(mv, dv[j])
			}
			j++
		default: // equal: delta shadows base
			if !dd[j] {
				mk = append(mk, dk[j])
				mv = append(mv, dv[j])
			}
			i++
			j++
		}
	}
	return mk, mv
}

// Get returns the value stored under key (buffer, then the frozen
// buffer of an in-flight rebuild, then the inner index).
func (ix *Index) Get(key uint64) (uint64, bool) {
	if i, ok := search.Find(ix.bufK, key); ok {
		if ix.bufD[i] {
			return 0, false
		}
		return ix.bufV[i], true
	}
	return ix.getBelow(key)
}

// getBelow resolves key in the layers under the live buffer: the frozen
// buffer of an in-flight rebuild, then the inner index.
func (ix *Index) getBelow(key uint64) (uint64, bool) {
	if i, ok := search.Find(ix.frozenK, key); ok {
		if ix.frozenD[i] {
			return 0, false
		}
		return ix.frozenV[i], true
	}
	return ix.inner.Get(key)
}

// GetBatch implements index.BatchGetter with the same shadowing order
// as Get. Lanes not decided by the buffer layers resolve through the
// inner index's batch path.
func (ix *Index) GetBatch(keys []uint64, vals []uint64, found []bool) {
	if len(ix.bufK) == 0 && len(ix.frozenK) == 0 {
		ix.inner.GetBatch(keys, vals, found)
		return
	}
	// Resolve the buffer layers per lane, then hand the undecided lanes
	// to the inner batch path in one compacted sub-batch.
	sub := make([]uint64, 0, len(keys))
	lane := make([]int, 0, len(keys))
	for i, key := range keys {
		vals[i], found[i] = 0, false
		if j, ok := search.Find(ix.bufK, key); ok {
			if !ix.bufD[j] {
				vals[i], found[i] = ix.bufV[j], true
			}
			continue
		}
		if j, ok := search.Find(ix.frozenK, key); ok {
			if !ix.frozenD[j] {
				vals[i], found[i] = ix.frozenV[j], true
			}
			continue
		}
		sub = append(sub, key)
		lane = append(lane, i)
	}
	if len(sub) == 0 {
		return
	}
	sv := make([]uint64, len(sub))
	sf := make([]bool, len(sub))
	ix.inner.GetBatch(sub, sv, sf)
	for x, i := range lane {
		vals[i], found[i] = sv[x], sf[x]
	}
}

// Len returns the number of live entries.
func (ix *Index) Len() int { return ix.length }

// Range implements index.Ranger with a pooled merge cursor over the
// three layers (buffer, frozen buffer, base arrays, newest shadowing
// oldest). All three are flat sorted slices that stay
// immutable while the single-writer contract holds, so the shared
// merge cursor applies directly; positioning is one binary search per
// layer.
func (ix *Index) Range(start uint64) index.Cursor {
	layers := make([]index.MergeLayer, 0, 3)
	add := func(keys, vals []uint64, dead []bool) {
		pos := search.LowerBound(keys, start, 0, len(keys))
		if pos < len(keys) {
			layers = append(layers, index.MergeLayer{Keys: keys, Vals: vals, Dead: dead, Pos: pos})
		}
	}
	add(ix.bufK, ix.bufV, ix.bufD)
	add(ix.frozenK, ix.frozenV, ix.frozenD)
	add(ix.baseK, ix.baseV, nil)
	return index.NewMergeCursor(layers)
}

// AvgDepth delegates to the inner index when it reports one.
func (ix *Index) AvgDepth() float64 {
	if d, ok := index.DepthOf(ix.inner); ok {
		return d
	}
	return 1
}

// Sizes reports the inner footprint plus the buffer layers.
func (ix *Index) Sizes() index.Sizes {
	s := ix.inner.Sizes()
	s.Structure += int64(len(ix.bufD) + len(ix.frozenD))
	s.Keys += int64(len(ix.bufK)+len(ix.frozenK)) * 8
	s.Values += int64(len(ix.bufV)+len(ix.frozenV)) * 8
	return s
}
