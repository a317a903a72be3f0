package delta

import (
	"learnedpieces/internal/index"
	"learnedpieces/internal/retrain"
)

// Base is the immutable layer under a Buffer's two runs (pgm's
// logarithmic runs, rebuild's inner index). A retrain replaces it whole.
type Base interface {
	Get(key uint64) (uint64, bool)
}

// Buffer is the write buffer of a single-writer index. Writes land in
// Live, in front of Base. When Live reaches the limit it becomes Frozen
// and a retrain folds it into a replacement base aside, while a fresh
// Live absorbs writes; lookups read Live, then Frozen, then Base. The
// retrain is built aside through retrain.Aside, the buffer itself being
// the one node: on a pool worker, or inline when the index has no pool,
// and installed on the writer's timeline, at the next write or drain,
// unless a Load since the freeze voided it. Writes never touch Frozen,
// so nothing is op-logged.
type Buffer[B Base] struct {
	Live, Frozen Run
	Base         B

	limit int
	build func(frozen Run, base B) B
	n     int // live entries across the three layers
	aside retrain.Aside[*Buffer[B], B]
}

// Init sets the Live size that triggers a retrain and the retrain
// itself: build folds a frozen run into base and returns the
// replacement. It runs aside, so it must not write to either argument.
func (b *Buffer[B]) Init(limit int, build func(frozen Run, base B) B) {
	b.limit, b.build = limit, build
	b.aside.Init(func(_ *Buffer[B], base B, _ []retrain.Op) { b.Base, b.Frozen = base, Run{} })
}

// SetPool routes subsequent retrains to p (nil: inline).
func (b *Buffer[B]) SetPool(p *retrain.Pool) { b.aside.SetPool(p) }

// Load replaces all three layers with base, which holds n live entries
// (a bulk load). A retrain in flight no longer applies.
func (b *Buffer[B]) Load(base B, n int) {
	b.aside.Reset()
	b.Live, b.Frozen, b.Base, b.n = Run{}, Run{}, base, n
}

// Len returns the number of live entries.
func (b *Buffer[B]) Len() int { return b.n }

// RetrainStats returns the number of retrains run and their total time.
func (b *Buffer[B]) RetrainStats() (int64, int64) { return b.aside.RetrainStats() }

// Find looks key up in the two runs, Live first.
func (b *Buffer[B]) Find(key uint64) (val uint64, live, found bool) {
	if val, live, found = b.Live.Find(key); found {
		return val, live, found
	}
	return b.Frozen.Find(key)
}

// Get resolves key through Live, Frozen and Base.
func (b *Buffer[B]) Get(key uint64) (uint64, bool) {
	if v, live, ok := b.Find(key); ok {
		return v, live
	}
	return b.Base.Get(key)
}

// Upsert writes (key, val, dead) into Live and reports whether key was
// live before. Live answers that itself for a key it holds; only a key
// new to it asks the layers below. A tombstone for a key that is not
// live is not written.
func (b *Buffer[B]) Upsert(key, val uint64, dead bool) bool {
	b.aside.Install()
	i, ok := b.Live.Pos(key)
	var wasLive bool
	if ok {
		wasLive = !b.Live.Dead[i]
	} else {
		wasLive = b.liveBelow(key)
	}
	switch {
	case dead && !wasLive:
		return false
	case dead:
		b.n--
	case !wasLive:
		b.n++
	}
	b.Live.Set(i, ok, key, val, dead)
	if len(b.Live.Keys) >= b.limit {
		b.freeze()
	}
	return wasLive
}

// liveBelow reports whether key is live under Live.
func (b *Buffer[B]) liveBelow(key uint64) bool {
	if _, live, ok := b.Frozen.Find(key); ok {
		return live
	}
	_, ok := b.Base.Get(key)
	return ok
}

// freeze makes Live the frozen run and submits its fold into a new
// base. While one retrain is in flight Live keeps absorbing writes past
// the limit: the index never blocks on its pool.
func (b *Buffer[B]) freeze() {
	if b.aside.InFlight(b) {
		return
	}
	b.Frozen, b.Live = b.Live, Run{}
	frozen, base := b.Frozen, b.Base
	b.aside.Submit(b, func() B { return b.build(frozen, base) })
}

// Drain waits for the retrain in flight and installs it, then retrains
// again while Live is at its limit, so a drained buffer holds less than
// one limit of writes however far they outran the pool. Writer timeline
// only.
func (b *Buffer[B]) Drain() {
	b.aside.Drain()
	for len(b.Live.Keys) >= b.limit {
		b.freeze()
		b.aside.Drain()
	}
}

// AppendLayers appends Live and Frozen, positioned at start, to a merge
// cursor's layers (newest first); the caller appends Base's.
func (b *Buffer[B]) AppendLayers(layers []index.MergeLayer, start uint64) []index.MergeLayer {
	return b.Frozen.AppendLayer(b.Live.AppendLayer(layers, start), start)
}

// Sizes reports the two runs' footprint, a tombstone flag counting one
// byte of structure.
func (b *Buffer[B]) Sizes() index.Sizes {
	n := int64(len(b.Live.Keys) + len(b.Frozen.Keys))
	return index.Sizes{Structure: n, Keys: 8 * n, Values: 8 * n}
}
