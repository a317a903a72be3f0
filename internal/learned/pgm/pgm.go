// Package pgm implements the PGM-Index (Ferragina & Vinciguerra): a
// static index of recursive optimal-PLA levels, plus the dynamic wrapper
// that supports inserts with the LSM-style logarithmic method the paper
// describes (§II-B2): a series of runs S0..Sb, each an independent static
// PGM; an insert merges the occupied prefix of runs into the first empty
// one, rebuilding that run's index ("retraining").
package pgm

import (
	"math/bits"

	"learnedpieces/internal/index"
	"learnedpieces/internal/learned/delta"
	"learnedpieces/internal/parallel"
	"learnedpieces/internal/pla"
	"learnedpieces/internal/prefetch"
	"learnedpieces/internal/retrain"
	"learnedpieces/internal/search"
)

// Config controls the PGM shape.
type Config struct {
	// Eps is the leaf-level error bound; <= 0 picks 32.
	Eps int
	// EpsInternal is the error bound of internal levels; <= 0 picks 8.
	EpsInternal int
	// BaseSize is the capacity of run S0 in the logarithmic method;
	// <= 0 picks 256. Fig 18 sweeps this value as "reserved space".
	BaseSize int
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config { return Config{Eps: 32, EpsInternal: 8, BaseSize: 256} }

func (c *Config) normalize() {
	if c.Eps <= 0 {
		c.Eps = 32
	}
	if c.EpsInternal <= 0 {
		c.EpsInternal = 8
	}
	if c.BaseSize <= 0 {
		c.BaseSize = 256
	}
}

// Static is an immutable PGM over sorted distinct keys: level 0
// segments approximate the key array at eps; the internal levels are an
// LRS at epsInternal over level 0's first keys.
type Static struct {
	keys   []uint64
	vals   []uint64
	dead   []bool // tombstones (used by the dynamic wrapper); nil = none
	filter filter // membership filter (the dynamic wrapper's newer runs); nil = none
	segs   []pla.Segment
	firsts []uint64 // firsts[j] = segs[j].FirstKey
	upper  *pla.LRS // empty while level 0 is one segment
	eps    int
}

// NewStatic builds a static PGM. keys must be sorted and distinct.
func NewStatic(keys, vals []uint64, eps, epsInternal int) *Static {
	s := &Static{keys: keys, vals: vals, eps: eps, upper: pla.NewLRS(epsInternal)}
	if len(keys) == 0 {
		return s
	}
	// Level 0 dominates build time; disjoint key chunks train in parallel
	// (the internal levels approximate the segment firsts and are tiny).
	s.segs = pla.BuildOptPLAChunked(keys, eps, parallel.Workers(len(keys)))
	s.firsts = make([]uint64, len(s.segs))
	for i := range s.segs {
		s.firsts[i] = s.segs[i].FirstKey
	}
	if len(s.segs) > 1 {
		s.upper.Build(s.firsts)
	}
	return s
}

// Levels returns the number of model levels (Table II depth).
func (s *Static) Levels() int {
	if len(s.segs) == 0 {
		return 0
	}
	return 1 + int(s.upper.Depth())
}

// find locates key's position in the key array. A miss is settled where
// it happens: a run whose key range or filter excludes the key is not
// searched, and a window whose neighbours straddle the key proves it
// absent, so a lookup that ends in an older run pays one cache line in
// most runs above it and at worst one window, not a whole-array search.
func (s *Static) find(key uint64) (int, bool) {
	if s.excludes(key) {
		return 0, false
	}
	pos := s.lowerBound(key)
	return pos, pos < len(s.keys) && s.keys[pos] == key
}

// excludes reports whether key lies outside the run's key range or its
// filter rules the key out.
func (s *Static) excludes(key uint64) bool {
	n := len(s.keys)
	return n == 0 || key < s.keys[0] || key > s.keys[n-1] || (s.filter != nil && !s.filter.mayContain(key))
}

// brackets reports whether pos is key's lower bound in the whole array:
// its neighbours straddle the key, so no wider search can disagree.
func (s *Static) brackets(pos int, key uint64) bool {
	return (pos == 0 || s.keys[pos-1] < key) && (pos == len(s.keys) || s.keys[pos] >= key)
}

// window runs the internal-level descent for key and returns the
// level-0 error window around the leaf segment's prediction.
func (s *Static) window(key uint64) (lo, hi int) {
	p := s.segs[s.upper.Locate(key)].Predict(key)
	return p - s.eps - 1, p + s.eps + 2
}

// Get returns the value at key (tombstones count as present-dead).
func (s *Static) Get(key uint64) (val uint64, dead, ok bool) {
	i, ok := s.find(key)
	if !ok {
		return 0, false, false
	}
	d := s.dead != nil && s.dead[i]
	if s.vals != nil {
		return s.vals[i], d, true
	}
	return 0, d, true
}

// Index is the dynamic PGM-Index: a sorted insert buffer of BaseSize
// entries in front of the logarithmic-method runs. Inserts go to the
// buffer; a full buffer merges into the first run with room, rebuilding
// that run's static PGM — the retraining unit the paper measures (one
// retrain per ~BaseSize inserts, cf. §IV-E "they retrain once for every
// 500 inserted keys"). With a retrain pool the merge runs in the
// background while a fresh buffer absorbs writes (delta.Buffer).
type Index struct {
	cfg Config
	buf delta.Buffer[runSet]
}

// runSet is the logarithmic method's runs: runs[i] holds at most
// BaseSize<<i keys, newer entries in lower levels; nil = empty. A flush
// replaces the whole set.
type runSet []*Static

// Get resolves key in the runs, newest first.
func (rs runSet) Get(key uint64) (uint64, bool) {
	for _, r := range rs {
		if r == nil {
			continue
		}
		if v, dead, ok := r.Get(key); ok {
			if dead {
				return 0, false
			}
			return v, true
		}
	}
	return 0, false
}

// New returns an empty dynamic PGM-Index.
func New(cfg Config) *Index {
	cfg.normalize()
	ix := &Index{cfg: cfg}
	ix.buf.Init(cfg.BaseSize, func(frozen delta.Run, runs runSet) runSet {
		// flushInto empties the levels it merges: give it its own slice
		// (the Statics themselves are immutable).
		return flushInto(cfg, append(runSet(nil), runs...), frozen)
	})
	return ix
}

// Name implements index.Index.
func (ix *Index) Name() string { return "pgm" }

// RetrainStats implements index.RetrainReporter.
func (ix *Index) RetrainStats() (int64, int64) { return ix.buf.RetrainStats() }

// SetRetrainPool implements index.AsyncRetrainer: subsequent buffer
// flushes build their merged runs on the pool.
func (ix *Index) SetRetrainPool(p *retrain.Pool) { ix.buf.SetPool(p) }

// DrainRetrains implements index.AsyncRetrainer: wait for in-flight
// flushes, install them, and flush again until the buffer is below
// BaseSize. Must run on the writer timeline.
func (ix *Index) DrainRetrains() { ix.buf.Drain() }

// BulkLoad places the sorted keys in the smallest run that fits them.
func (ix *Index) BulkLoad(keys, values []uint64) error {
	var runs runSet
	if len(keys) > 0 {
		lvl := ix.levelFor(len(keys))
		runs = make(runSet, lvl+1)
		runs[lvl] = NewStatic(keys, values, ix.cfg.Eps, ix.cfg.EpsInternal)
	}
	ix.buf.Load(runs, len(keys))
	return nil
}

// levelFor returns the smallest run level whose capacity holds n keys.
func (ix *Index) levelFor(n int) int {
	if n <= ix.cfg.BaseSize {
		return 0
	}
	q := (n + ix.cfg.BaseSize - 1) / ix.cfg.BaseSize
	return bits.Len(uint(q - 1))
}

// Get returns the value stored under key (buffer, then the frozen
// buffer of an in-flight flush, then newest run).
func (ix *Index) Get(key uint64) (uint64, bool) { return ix.buf.Get(key) }

// GetBatch implements index.BatchGetter with the same shadowing order
// as Get — buffers first, then runs newest-first. Within each run the
// per-key internal descent (small arrays, cache-resident) runs
// sequentially, and the level-0 error windows over the run's big key
// array resolve in interleaved lockstep.
func (ix *Index) GetBatch(keys []uint64, vals []uint64, found []bool) {
	for off := 0; off < len(keys); off += search.MaxLanes {
		end := off + search.MaxLanes
		if end > len(keys) {
			end = len(keys)
		}
		chunk := keys[off:end]
		// done marks keys whose fate a newer layer already decided
		// (found, or shadowed by a tombstone).
		var done [search.MaxLanes]bool
		for l, key := range chunk {
			vals[off+l], found[off+l], done[l] = ix.buf.Find(key)
		}
		for _, r := range ix.buf.Base {
			if r == nil {
				continue
			}
			var b search.Batch
			var lane [search.MaxLanes]int
			for l, key := range chunk {
				if done[l] || r.excludes(key) {
					continue
				}
				lo, hi := r.window(key)
				lane[b.Len()] = l
				b.Add(r.keys, key, lo, hi)
			}
			if b.Len() == 0 {
				continue
			}
			b.Run()
			for x := 0; x < b.Len(); x++ {
				l := lane[x]
				i, ok := b.Pos(x), b.Found(x)
				if !ok && !r.brackets(i, chunk[l]) {
					// Same widen-once safety net as Static.lowerBound.
					i, ok = search.Find(r.keys, chunk[l])
				}
				if !ok {
					continue
				}
				done[l] = true
				if r.dead != nil && r.dead[i] {
					continue
				}
				found[off+l] = true
				if r.vals != nil {
					vals[off+l] = r.vals[i]
				}
			}
		}
	}
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

// flushInto merges the frozen buffer plus the occupied prefix of runs
// into the first run with spare capacity — the logarithmic method —
// returning the new run set. Each flush is one retraining action. It
// writes only to runs' slots, never to a Static or to the buffer.
func flushInto(cfg Config, runs runSet, acc delta.Run) runSet {
	j := 0
	for ; j < len(runs); j++ {
		if runs[j] == nil {
			break
		}
		acc = delta.Merge(acc, runs[j].run(), true)
		runs[j] = nil
		if len(acc.Keys) <= cfg.BaseSize<<uint(j) {
			// Everything merged so far already fits at this level.
			break
		}
	}
	for len(acc.Keys) > cfg.BaseSize<<uint(j) {
		// The merged run outgrew level j: absorb further runs (occupied or
		// not) until it fits.
		j++
		if j < len(runs) && runs[j] != nil {
			acc = delta.Merge(acc, runs[j].run(), true)
			runs[j] = nil
		}
	}
	// Drop tombstones when nothing older remains below.
	last := true
	for i := j + 1; i < len(runs); i++ {
		if runs[i] != nil {
			last = false
			break
		}
	}
	if last {
		acc = acc.Live()
	}
	for len(runs) <= j {
		runs = append(runs, nil)
	}
	s := NewStatic(acc.Keys, acc.Vals, cfg.Eps, cfg.EpsInternal)
	s.dead = acc.Dead
	if !last {
		// A miss in the oldest run is the final answer; a newer run that
		// does not hold the key is skipped for one cache line.
		s.filter = newFilter(acc.Keys)
	}
	runs[j] = s
	return runs
}

// run returns the static run's entries for merging.
func (s *Static) run() delta.Run { return delta.Run{Keys: s.keys, Vals: s.vals, Dead: s.dead} }

// Len returns the number of live entries.
func (ix *Index) Len() int { return ix.buf.Len() }

// lowerBound locates the first position with keys[pos] >= key via the
// internal-level descent, falling back to a whole-array kernel search
// when the eps window does not bracket an absent key's insertion point.
// Every caller reads the value at the answer next, so the window's value
// lines are prefetched alongside its key lines: the value's miss
// overlaps the search instead of following it.
func (s *Static) lowerBound(key uint64) int {
	n := len(s.keys)
	if n == 0 {
		return 0
	}
	lo, hi := s.window(key)
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo < hi && s.vals != nil {
		prefetch.Slice(s.vals[lo:hi])
	}
	pos := search.LowerBound(s.keys, key, lo, hi)
	if s.brackets(pos, key) {
		return pos
	}
	return search.LowerBound(s.keys, key, 0, n)
}

// Range implements index.Ranger: every layer is positioned once — the
// runs through their model descent, the buffers through the shared
// kernels — then the pooled merge cursor walks them, newer layers
// shadowing older ones (layers are ordered newest first). The layers are
// appended straight into the pooled cursor, so an open allocates nothing
// however many runs the index holds.
func (ix *Index) Range(start uint64) index.Cursor {
	c := index.OpenMergeCursor()
	c.Layers = ix.buf.AppendLayers(c.Layers, start)
	for _, r := range ix.buf.Base {
		if r == nil {
			continue
		}
		if pos := r.lowerBound(start); pos < len(r.keys) {
			c.Layers = append(c.Layers, index.MergeLayer{Keys: r.keys, Vals: r.vals, Dead: r.dead, Pos: pos})
		}
	}
	return c
}

// AvgDepth reports the model level count of the largest run (Table II).
func (ix *Index) AvgDepth() float64 {
	depth := 0
	for _, r := range ix.buf.Base {
		if r != nil && r.Levels() > depth {
			depth = r.Levels()
		}
	}
	return float64(depth)
}

// Sizes reports the footprint: all model levels, filters and tombstone
// flags (one byte each) are structure; the insert buffer counts toward
// keys/values.
func (ix *Index) Sizes() index.Sizes {
	sz := ix.buf.Sizes()
	for _, r := range ix.buf.Base {
		if r == nil {
			continue
		}
		sz.Structure += int64(len(r.segs))*56 + int64(len(r.firsts))*8 + r.upper.SizeBytes() +
			int64(len(r.filter))*8 + int64(len(r.dead))
		sz.Keys += int64(len(r.keys)) * 8
		sz.Values += int64(len(r.vals)) * 8
	}
	return sz
}
