// Package pgm implements the PGM-Index (Ferragina & Vinciguerra): a
// static index of recursive optimal-PLA levels, plus the dynamic wrapper
// that supports inserts with the LSM-style logarithmic method the paper
// describes (§II-B2): a series of runs S0..Sb, each an independent static
// PGM; an insert merges the occupied prefix of runs into the first empty
// one, rebuilding that run's index ("retraining").
package pgm

import (
	"math/bits"
	"sync/atomic"
	"time"

	"learnedpieces/internal/index"
	"learnedpieces/internal/parallel"
	"learnedpieces/internal/pla"
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

// Static is an immutable PGM over sorted distinct keys: level 0 segments
// approximate the key array; level i>0 segments approximate the first
// keys of level i-1's segments, recursively, until one segment remains.
type Static struct {
	keys   []uint64
	vals   []uint64
	dead   []bool // tombstones (used by the dynamic wrapper); nil = none
	levels [][]pla.Segment
	firsts [][]uint64 // firsts[i][j] = levels[i][j].FirstKey
	eps    int
	epsInt int
}

// NewStatic builds a static PGM. keys must be sorted and distinct.
func NewStatic(keys, vals []uint64, eps, epsInternal int) *Static {
	s := &Static{keys: keys, vals: vals, eps: eps, epsInt: epsInternal}
	s.build()
	return s
}

func (s *Static) build() {
	s.levels = nil
	s.firsts = nil
	if len(s.keys) == 0 {
		return
	}
	// Level 0 dominates build time; disjoint key chunks train in parallel
	// (upper levels approximate the segment firsts and are tiny — serial).
	segs := pla.BuildOptPLAChunked(s.keys, s.eps, parallel.Workers(len(s.keys)))
	for {
		s.levels = append(s.levels, segs)
		firsts := make([]uint64, len(segs))
		for i := range segs {
			firsts[i] = segs[i].FirstKey
		}
		s.firsts = append(s.firsts, firsts)
		if len(segs) == 1 {
			return
		}
		segs = pla.BuildOptPLA(firsts, s.epsInt)
	}
}

// Levels returns the number of model levels (Table II depth).
func (s *Static) Levels() int { return len(s.levels) }

// SegmentCount returns the leaf segment count.
func (s *Static) SegmentCount() int {
	if len(s.levels) == 0 {
		return 0
	}
	return len(s.levels[0])
}

// find locates key's position in the key array. A miss is settled where
// it happens: a run whose key range excludes the key is not searched, and
// a window whose neighbours straddle the key proves it absent, so a
// lookup that ends in an older run pays one window in each run above it,
// not a whole-array search.
func (s *Static) find(key uint64) (int, bool) {
	if s.excludes(key) {
		return 0, false
	}
	pos := s.lowerBound(key)
	return pos, pos < len(s.keys) && s.keys[pos] == key
}

// excludes reports whether key lies outside the run's key range.
func (s *Static) excludes(key uint64) bool {
	n := len(s.keys)
	return n == 0 || key < s.keys[0] || key > s.keys[n-1]
}

// brackets reports whether pos is key's lower bound in the whole array:
// its neighbours straddle the key, so no wider search can disagree.
func (s *Static) brackets(pos int, key uint64) bool {
	return (pos == 0 || s.keys[pos-1] < key) && (pos == len(s.keys) || s.keys[pos] >= key)
}

// window runs the internal-level descent for key and returns the
// level-0 error window around the leaf segment's prediction.
func (s *Static) window(key uint64) (lo, hi int) {
	segIdx := 0
	for lvl := len(s.levels) - 1; lvl >= 1; lvl-- {
		seg := &s.levels[lvl][segIdx]
		domain := s.firsts[lvl-1]
		segIdx = floorIn(domain, seg.Predict(key), s.epsInt, key)
	}
	seg := &s.levels[0][segIdx]
	p := seg.Predict(key)
	return p - s.eps - 1, p + s.eps + 2
}

// floorIn returns the index of the greatest domain element <= key,
// searching an eps window around the predicted position p and adjusting
// outward if the window missed.
func floorIn(domain []uint64, p, eps int, key uint64) int {
	j := search.UpperBound(domain, key, p-eps-1, p+eps+2)
	// j is the first index in the window with domain[j] > key; adjust for
	// the (rare) case where the true boundary lies outside the window.
	for j < len(domain) && domain[j] <= key {
		j++
	}
	for j > 0 && domain[j-1] > key {
		j--
	}
	if j == 0 {
		return 0
	}
	return j - 1
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
// 500 inserted keys").
type Index struct {
	cfg    Config
	bufK   []uint64
	bufV   []uint64
	bufD   []bool
	runs   []*Static // runs[i] capacity = BaseSize << i; nil = empty
	length int       // live entries; every write knows whether it added or removed one

	// Background flushing (index.AsyncRetrainer): a full buffer is
	// frozen and handed to the pool, which merges it with a snapshot of
	// the runs aside; a fresh buffer absorbs writes meanwhile. Lookups
	// read buf -> frozen -> runs. The result is deposited in the inbox
	// and installed on the writer's timeline (the single-writer contract
	// means the background task must never touch the live structure).
	pool     *retrain.Pool
	frozenK  []uint64
	frozenV  []uint64
	frozenD  []bool
	flushing bool
	gen      uint64 // bumped when a pending deposit becomes invalid (BulkLoad)
	inbox    retrain.Inbox[flushResult]

	retrains  atomic.Int64
	retrainNs atomic.Int64
}

// flushResult is one background flush: the replacement run set, tagged
// with the generation it was built from.
type flushResult struct {
	gen  uint64
	runs []*Static
}

// New returns an empty dynamic PGM-Index.
func New(cfg Config) *Index {
	cfg.normalize()
	return &Index{cfg: cfg}
}

// Name implements index.Index.
func (ix *Index) Name() string { return "pgm" }

// RetrainStats implements index.RetrainReporter.
func (ix *Index) RetrainStats() (int64, int64) {
	return ix.retrains.Load(), ix.retrainNs.Load()
}

// SetRetrainPool implements index.AsyncRetrainer: subsequent buffer
// flushes build their merged runs on the pool.
func (ix *Index) SetRetrainPool(p *retrain.Pool) { ix.pool = p }

// DrainRetrains implements index.AsyncRetrainer: wait for in-flight
// flushes, then install their results. Must run on the writer timeline.
func (ix *Index) DrainRetrains() {
	ix.pool.Drain()
	ix.install()
}

// install applies deposited flush results; stale deposits (the
// structure was replaced after the snapshot) are dropped.
func (ix *Index) install() {
	for _, dep := range ix.inbox.TakeAll() {
		if dep.gen != ix.gen {
			continue
		}
		ix.runs = dep.runs
		ix.frozenK, ix.frozenV, ix.frozenD = nil, nil, nil
		ix.flushing = false
	}
}

// BulkLoad places the sorted keys in the smallest run that fits them.
func (ix *Index) BulkLoad(keys, values []uint64) error {
	ix.gen++ // a pending flush deposit no longer applies
	ix.frozenK, ix.frozenV, ix.frozenD = nil, nil, nil
	ix.flushing = false
	ix.runs = nil
	ix.bufK, ix.bufV, ix.bufD = nil, nil, nil
	ix.length = len(keys)
	if len(keys) == 0 {
		return nil
	}
	lvl := ix.levelFor(len(keys))
	ix.runs = make([]*Static, lvl+1)
	ix.runs[lvl] = NewStatic(keys, values, ix.cfg.Eps, ix.cfg.EpsInternal)
	return nil
}

// bufSearch returns the buffer position of key.
func (ix *Index) bufSearch(key uint64) (int, bool) {
	return search.Find(ix.bufK, key)
}

// bufUpsert writes (key,value,dead) into the sorted buffer, flushing to
// the runs when it reaches BaseSize, and reports whether key was live
// before. The buffer answers that itself for a key it already holds;
// only a key new to it asks the layers below. A tombstone for a key that
// is not live is not written.
func (ix *Index) bufUpsert(key, value uint64, dead bool) bool {
	i, ok := ix.bufSearch(key)
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
	if len(ix.bufK) >= ix.cfg.BaseSize {
		ix.scheduleFlush()
	}
	return wasLive
}

// scheduleFlush routes a full buffer to the pool when one is attached,
// and to the classic inline flush otherwise. While a background flush
// is in flight the live buffer simply keeps absorbing writes (it grows
// past BaseSize until the deposit installs) — the index never blocks.
func (ix *Index) scheduleFlush() {
	if ix.pool == nil {
		ix.flush()
		return
	}
	if ix.flushing {
		return
	}
	ix.flushing = true
	ix.frozenK, ix.frozenV, ix.frozenD = ix.bufK, ix.bufV, ix.bufD
	ix.bufK, ix.bufV, ix.bufD = nil, nil, nil
	fk, fv, fd := ix.frozenK, ix.frozenV, ix.frozenD
	runs := append([]*Static(nil), ix.runs...)
	gen := ix.gen
	cfg := ix.cfg
	ix.pool.Submit(ix, func() {
		start := time.Now()
		res := flushInto(cfg, runs, fk, fv, fd)
		ix.retrains.Add(1)
		ix.retrainNs.Add(time.Since(start).Nanoseconds())
		ix.inbox.Put(flushResult{gen: gen, runs: res})
	})
	ix.install() // in sync mode the deposit is already waiting
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
func (ix *Index) Get(key uint64) (uint64, bool) {
	if i, ok := ix.bufSearch(key); ok {
		if ix.bufD[i] {
			return 0, false
		}
		return ix.bufV[i], true
	}
	return ix.getBelow(key)
}

// getBelow resolves key in the layers under the live buffer: the frozen
// buffer of an in-flight flush, then the runs newest first.
func (ix *Index) getBelow(key uint64) (uint64, bool) {
	if i, ok := search.Find(ix.frozenK, key); ok {
		if ix.frozenD[i] {
			return 0, false
		}
		return ix.frozenV[i], true
	}
	for _, r := range ix.runs {
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

// GetBatch implements index.BatchGetter with the same shadowing order
// as Get — buffer first, then runs newest-first. Within each run the
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
			vals[off+l], found[off+l] = 0, false
			if i, ok := ix.bufSearch(key); ok {
				done[l] = true
				if !ix.bufD[i] {
					vals[off+l], found[off+l] = ix.bufV[i], true
				}
				continue
			}
			if i, ok := search.Find(ix.frozenK, key); ok {
				done[l] = true
				if !ix.frozenD[i] {
					vals[off+l], found[off+l] = ix.frozenV[i], true
				}
			}
		}
		for _, r := range ix.runs {
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
	ix.install()
	return ix.bufUpsert(key, value, false), nil
}

// Delete inserts a tombstone and reports whether the key was live.
func (ix *Index) Delete(key uint64) bool {
	ix.install()
	return ix.bufUpsert(key, 0, true)
}

// flush merges the buffer plus the occupied prefix of runs into the
// first run with spare capacity — the logarithmic method. Each flush is
// one retraining action.
func (ix *Index) flush() {
	start := time.Now()
	mk, mv, md := ix.bufK, ix.bufV, ix.bufD
	ix.bufK, ix.bufV, ix.bufD = nil, nil, nil
	ix.runs = flushInto(ix.cfg, ix.runs, mk, mv, md)
	ix.retrains.Add(1)
	ix.retrainNs.Add(time.Since(start).Nanoseconds())
}

// flushInto merges the (mk, mv, md) buffer plus the occupied prefix of
// runs into the first run with spare capacity, returning the new run
// set. Pure with respect to the index — callers on a background worker
// pass a private copy of the runs slice (the Statics themselves are
// immutable) and install the result on the writer timeline.
func flushInto(cfg Config, runs []*Static, mk, mv []uint64, md []bool) []*Static {
	j := 0
	for ; j < len(runs); j++ {
		if runs[j] == nil {
			break
		}
		mk, mv, md = mergeRuns(mk, mv, md, runs[j])
		runs[j] = nil
		if len(mk) <= cfg.BaseSize<<uint(j) {
			// Everything merged so far already fits at this level.
			break
		}
	}
	for len(mk) > cfg.BaseSize<<uint(j) {
		// The merged run outgrew level j: absorb further runs (occupied or
		// not) until it fits.
		j++
		if j < len(runs) && runs[j] != nil {
			mk, mv, md = mergeRuns(mk, mv, md, runs[j])
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
		mk, mv, md = dropDead(mk, mv, md)
	}
	for len(runs) <= j {
		runs = append(runs, nil)
	}
	s := NewStatic(mk, mv, cfg.Eps, cfg.EpsInternal)
	s.dead = md
	runs[j] = s
	return runs
}

// mergeRuns merges the (newer) triple with an (older) run, newest wins.
func mergeRuns(nk, nv []uint64, nd []bool, old *Static) ([]uint64, []uint64, []bool) {
	ok, ov, od := old.keys, old.vals, old.dead
	mk := make([]uint64, 0, len(nk)+len(ok))
	mv := make([]uint64, 0, len(nk)+len(ok))
	md := make([]bool, 0, len(nk)+len(ok))
	i, j := 0, 0
	for i < len(nk) || j < len(ok) {
		switch {
		case j >= len(ok) || (i < len(nk) && nk[i] < ok[j]):
			mk = append(mk, nk[i])
			mv = append(mv, nv[i])
			md = append(md, nd[i])
			i++
		case i >= len(nk) || ok[j] < nk[i]:
			mk = append(mk, ok[j])
			if ov != nil {
				mv = append(mv, ov[j])
			} else {
				mv = append(mv, 0)
			}
			md = append(md, od != nil && od[j])
			j++
		default: // equal: newer shadows older
			mk = append(mk, nk[i])
			mv = append(mv, nv[i])
			md = append(md, nd[i])
			i++
			j++
		}
	}
	return mk, mv, md
}

// dropDead returns the triple without its tombstones. It never writes to
// its input: a background flush that merged nothing is handed the frozen
// buffer itself, which lookups keep searching until the result installs.
func dropDead(mk, mv []uint64, md []bool) ([]uint64, []uint64, []bool) {
	live := 0
	for _, d := range md {
		if !d {
			live++
		}
	}
	if live == len(mk) {
		return mk, mv, md
	}
	lk, lv := make([]uint64, 0, live), make([]uint64, 0, live)
	for i, d := range md {
		if !d {
			lk, lv = append(lk, mk[i]), append(lv, mv[i])
		}
	}
	return lk, lv, make([]bool, live)
}

// Len returns the number of live entries.
func (ix *Index) Len() int { return ix.length }

// lowerBound locates the first position with keys[pos] >= key via the
// internal-level descent, falling back to a whole-array kernel search
// when the eps window does not bracket an absent key's insertion point.
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
	pos := search.LowerBound(s.keys, key, lo, hi)
	if s.brackets(pos, key) {
		return pos
	}
	return search.LowerBound(s.keys, key, 0, n)
}

// Range implements index.Ranger: every layer is positioned once — the
// runs through their model descent, the buffers through the shared
// kernels — then the pooled merge cursor walks them, newer layers
// shadowing older ones (layers are ordered newest first).
func (ix *Index) Range(start uint64) index.Cursor {
	layers := make([]index.MergeLayer, 0, 2+len(ix.runs))
	add := func(keys, vals []uint64, dead []bool, pos int) {
		if pos < len(keys) {
			layers = append(layers, index.MergeLayer{Keys: keys, Vals: vals, Dead: dead, Pos: pos})
		}
	}
	add(ix.bufK, ix.bufV, ix.bufD, search.LowerBound(ix.bufK, start, 0, len(ix.bufK)))
	add(ix.frozenK, ix.frozenV, ix.frozenD, search.LowerBound(ix.frozenK, start, 0, len(ix.frozenK)))
	for _, r := range ix.runs {
		if r != nil && len(r.keys) > 0 {
			add(r.keys, r.vals, r.dead, r.lowerBound(start))
		}
	}
	return index.NewMergeCursor(layers)
}

// AvgDepth reports the model level count of the largest run (Table II).
func (ix *Index) AvgDepth() float64 {
	depth := 0
	for _, r := range ix.runs {
		if r != nil && r.Levels() > depth {
			depth = r.Levels()
		}
	}
	return float64(depth)
}

// LeafCount returns the total leaf segment count across runs.
func (ix *Index) LeafCount() int {
	n := 0
	for _, r := range ix.runs {
		if r != nil {
			n += r.SegmentCount()
		}
	}
	return n
}

// Sizes reports the footprint: all model levels are structure; the
// insert buffer counts toward keys/values.
func (ix *Index) Sizes() index.Sizes {
	st := int64(len(ix.bufD) + len(ix.frozenD))
	kb := int64(len(ix.bufK)+len(ix.frozenK)) * 8
	vb := int64(len(ix.bufV)+len(ix.frozenV)) * 8
	for _, r := range ix.runs {
		if r == nil {
			continue
		}
		for _, lvl := range r.levels {
			st += int64(len(lvl)) * 56
		}
		for _, f := range r.firsts {
			st += int64(len(f)) * 8
		}
		kb += int64(len(r.keys)) * 8
		vb += int64(len(r.vals)) * 8
	}
	return index.Sizes{Structure: st, Keys: kb, Values: vb}
}
