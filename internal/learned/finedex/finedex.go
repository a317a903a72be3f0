// Package finedex implements a FINEdex-style learned index (Li et al.,
// VLDB'22: "FINEdex: A Fine-grained Learned Index Scheme for Scalable
// and Concurrent Memory Systems") — cited in the paper's introduction as
// one of the practical updatable learned indexes. Its design point:
// error-bounded models over immutable base data, with *fine-grained*
// insert absorbers ("level bins") hanging off each model instead of one
// coarse per-group buffer (XIndex) — writers touching different bins
// never contend, and a full bin splits into a child level of bins rather
// than blocking on a retrain.
//
// Concurrency: a global RWMutex guards only the segment-array swap
// (retraining); per-bin mutexes serialise writers hand-over-hand down
// the bin levels; base data is immutable and read lock-free.
package finedex

import (
	"sync"
	"sync/atomic"
	"time"

	"learnedpieces/internal/epoch"
	"learnedpieces/internal/index"
	"learnedpieces/internal/learned/delta"
	"learnedpieces/internal/pla"
	"learnedpieces/internal/retrain"
	"learnedpieces/internal/search"
)

// Config controls models, bins and retraining.
type Config struct {
	// Eps is the model error bound; <= 0 picks 32.
	Eps int
	// BinCap is the entry capacity of one bin; <= 0 picks 64.
	BinCap int
	// BinFanout is the child count of a split bin; <= 0 picks 4.
	BinFanout int
	// MaxDepth bounds bin levels before the segment retrains; <= 0 picks 3.
	MaxDepth int
}

// DefaultConfig returns the configuration used by the benchmarks.
func DefaultConfig() Config { return Config{} }

func (c *Config) normalize() {
	if c.Eps <= 0 {
		c.Eps = 32
	}
	if c.BinCap <= 0 {
		c.BinCap = 64
	}
	if c.BinFanout <= 0 {
		c.BinFanout = 4
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 3
	}
}

// bin is one insert absorber: either a leaf holding a sorted run with
// tombstones (children == nil) or a router over its children (level bin).
type bin struct {
	mu sync.Mutex
	delta.Run
	children []*bin
	pivots   []uint64 // children[i] covers [pivots[i-1], pivots[i])
}

// segment is one model over an immutable base run plus its bin tree.
type segment struct {
	pla.Model  // predicts local position in keys
	maxErr     int
	keys       []uint64 // immutable base
	vals       []uint64
	root       *bin
	binKeys    atomic.Int64 // live entries absorbed by bins
	retraining atomic.Bool  // a retrain for this segment is in flight
}

type table struct {
	firsts []uint64
	segs   []*segment
}

// Index is the FINEdex-style index.
type Index struct {
	cfg      Config
	structMu sync.RWMutex // guards tab swaps (retraining)
	tab      atomic.Pointer[table]
	length   atomic.Int64
	pool     *retrain.Pool // nil: segment retrains run on the inserting goroutine

	retrains  atomic.Int64
	retrainNs atomic.Int64
}

// New returns an empty index.
func New(cfg Config) *Index {
	cfg.normalize()
	ix := &Index{cfg: cfg}
	seg := &segment{root: &bin{}}
	ix.tab.Store(&table{firsts: []uint64{0}, segs: []*segment{seg}})
	return ix
}

// Name implements index.Index.
func (ix *Index) Name() string { return "finedex" }

// Len returns the number of live entries.
func (ix *Index) Len() int { return int(ix.length.Load()) }

// ConcurrentWrites reports that concurrent Inserts are safe (the
// fine-grained bins are FINEdex's whole point).
func (ix *Index) ConcurrentWrites() bool { return true }

// RetrainStats implements index.RetrainReporter.
func (ix *Index) RetrainStats() (int64, int64) {
	return ix.retrains.Load(), ix.retrainNs.Load()
}

// SetRetrainPool implements index.AsyncRetrainer: subsequent segment
// retrains run on the pool. Must be called before the index serves
// concurrent operations.
func (ix *Index) SetRetrainPool(p *retrain.Pool) { ix.pool = p }

// DrainRetrains implements index.AsyncRetrainer. Segment retrains
// install their own results under the structure lock, so waiting for
// the pool is enough.
func (ix *Index) DrainRetrains() { ix.pool.Drain() }

// BulkLoad builds error-bounded models over sorted distinct keys. The
// structure lock excludes an in-flight background retrain, whose
// install then aborts because its segment is gone from the new table.
func (ix *Index) BulkLoad(keys, values []uint64) error {
	if values == nil {
		values = make([]uint64, len(keys))
	}
	t := buildTable(keys, values, ix.cfg.Eps)
	ix.structMu.Lock()
	ix.tab.Store(t)
	ix.structMu.Unlock()
	ix.length.Store(int64(len(keys)))
	return nil
}

func buildTable(keys, values []uint64, eps int) *table {
	if len(keys) == 0 {
		return &table{firsts: []uint64{0}, segs: []*segment{{root: &bin{}}}}
	}
	plaSegs := pla.BuildOptPLA(keys, eps)
	t := &table{
		firsts: make([]uint64, len(plaSegs)),
		segs:   make([]*segment, len(plaSegs)),
	}
	for i, s := range plaSegs {
		seg := &segment{
			Model: s.Local(),
			keys:  append([]uint64(nil), keys[s.Start:s.End]...),
			vals:  append([]uint64(nil), values[s.Start:s.End]...),
			root:  &bin{},
		}
		for j, k := range seg.keys {
			e := seg.Predict(k, len(seg.keys)) - j
			if e < 0 {
				e = -e
			}
			if e > seg.maxErr {
				seg.maxErr = e
			}
		}
		t.firsts[i] = s.FirstKey
		t.segs[i] = seg
	}
	return t
}

// baseSearch finds key in the immutable base with a bounded search.
func (s *segment) baseSearch(key uint64) (int, bool) {
	n := len(s.keys)
	if n == 0 {
		return 0, false
	}
	p := s.Predict(key, n)
	return search.FindBounded(s.keys, key, p-s.maxErr, p+s.maxErr+1)
}

// locate returns the segment covering key.
func (t *table) locate(key uint64) *segment {
	return t.segs[search.Floor(t.firsts, key, 0, len(t.firsts))]
}

// descend walks the bin levels to the leaf bin responsible for key,
// hand-over-hand, returning it locked.
func descend(b *bin, key uint64) *bin {
	b.mu.Lock()
	for b.children != nil {
		i := search.UpperBound(b.pivots, key, 0, len(b.pivots))
		child := b.children[i]
		child.mu.Lock()
		b.mu.Unlock()
		b = child
	}
	return b
}

// binGet looks key up in the bin tree.
func binGet(b *bin, key uint64) (val uint64, live, found bool) {
	b = descend(b, key)
	defer b.mu.Unlock()
	return b.Find(key)
}

// Get returns the value stored under key.
func (ix *Index) Get(key uint64) (uint64, bool) {
	ix.structMu.RLock()
	defer ix.structMu.RUnlock()
	seg := ix.tab.Load().locate(key)
	// Bins are newer than the base.
	if v, live, ok := binGet(seg.root, key); ok {
		return v, live
	}
	if i, ok := seg.baseSearch(key); ok {
		return seg.vals[i], true
	}
	return 0, false
}

// Insert stores value under key, replacing any existing value. Safe for
// concurrent use; writers contend only on the leaf bin they touch.
func (ix *Index) Insert(key, value uint64) error {
	ix.upsert(key, value, false)
	return nil
}

// InsertReplace implements index.Upserter: existence is read under the
// bin lock the write holds, so it is atomic with the insert.
func (ix *Index) InsertReplace(key, value uint64) (bool, error) {
	return ix.upsert(key, value, false), nil
}

// Delete removes key (tombstone in a bin when the key lives in the base).
func (ix *Index) Delete(key uint64) bool {
	return ix.upsert(key, 0, true)
}

// upsert returns whether the key was live before the operation.
func (ix *Index) upsert(key, value uint64, dead bool) bool {
	ix.structMu.RLock()
	seg := ix.tab.Load().locate(key)
	b := descend(seg.root, key)
	i, inBin := b.Pos(key)
	var wasLive bool
	if inBin {
		wasLive = !b.Dead[i]
	} else {
		_, wasLive = seg.baseSearch(key)
	}
	if dead && !wasLive {
		b.mu.Unlock()
		ix.structMu.RUnlock()
		return false
	}
	if !inBin {
		seg.binKeys.Add(1)
	}
	b.Set(i, inBin, key, value, dead)
	if len(b.Keys) >= ix.cfg.BinCap {
		ix.splitBin(seg, b, key)
	}
	b.mu.Unlock()
	switch {
	case dead && wasLive:
		ix.length.Add(-1)
	case !dead && !wasLive:
		ix.length.Add(1)
	}
	needRetrain := int(seg.binKeys.Load()) > len(seg.keys)/2+4*ix.cfg.BinCap
	ix.structMu.RUnlock()
	// The retraining flag admits one retrain per segment lifetime: the
	// rebuilt replacements start fresh, and the flag also keeps the
	// pool's coalescing from ever being asked to drop a duplicate.
	if needRetrain && seg.retraining.CompareAndSwap(false, true) {
		ix.pool.Submit(seg, func() { ix.retrainSegment(seg) })
	}
	return wasLive
}

// splitBin turns a full leaf bin into a router over BinFanout children
// (a new bin level), unless the level budget is exhausted — then the
// segment-level retrain will pick it up. Called with b locked.
func (ix *Index) splitBin(seg *segment, b *bin, key uint64) {
	depth := binDepth(seg.root, key, ix.cfg.MaxDepth+1)
	if depth > ix.cfg.MaxDepth {
		return // leave it oversized; retrain will rebuild the segment
	}
	n := len(b.Keys)
	fan := ix.cfg.BinFanout
	children := make([]*bin, fan)
	pivots := make([]uint64, fan-1)
	per := (n + fan - 1) / fan
	for c := 0; c < fan; c++ {
		lo := c * per
		hi := lo + per
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		children[c] = &bin{Run: delta.Run{
			Keys: append([]uint64(nil), b.Keys[lo:hi]...),
			Vals: append([]uint64(nil), b.Vals[lo:hi]...),
			Dead: append([]bool(nil), b.Dead[lo:hi]...),
		}}
		if c < fan-1 {
			if hi < n {
				pivots[c] = b.Keys[hi]
			} else {
				pivots[c] = ^uint64(0)
			}
		}
	}
	b.children = children
	b.pivots = pivots
	b.Run = delta.Run{}
}

// binDepth returns the leaf depth on key's path (1 = root is the leaf).
func binDepth(b *bin, key uint64, limit int) int {
	d := 1
	for b.children != nil && d <= limit {
		i := search.UpperBound(b.pivots, key, 0, len(b.pivots))
		b = b.children[i]
		d++
	}
	return d
}

// retrainSegment merges a segment's base with its bins and re-segments,
// swapping the new segments into a fresh table ("retrain one segment").
//
// The expensive work — walking the bins and training the replacement
// models — runs without the structure lock, so concurrent readers and
// writers proceed against the old segment while the replacement is
// built aside (on a background worker in async mode). Only the install
// takes the lock, and first replays the writes that landed in the bins
// while the models were training.
func (ix *Index) retrainSegment(old *segment) {
	start := time.Now()
	// Build aside: the base is immutable and the overlay walk takes the
	// bin locks, so no structure lock is needed here.
	ovA := old.overlay()
	m := delta.Merge(ovA, old.base(), false)
	var repl *table
	if len(m.Keys) > 0 {
		repl = buildTable(m.Keys, m.Vals, ix.cfg.Eps)
	} else {
		repl = &table{
			firsts: []uint64{old.FirstKey},
			segs:   []*segment{{Model: pla.Model{FirstKey: old.FirstKey}, root: &bin{}}},
		}
	}

	ix.structMu.Lock()
	defer ix.structMu.Unlock()
	cur := ix.tab.Load()
	pos := -1
	for i, s := range cur.segs {
		if s == old {
			pos = i
			break
		}
	}
	if pos < 0 {
		return // the table was rebuilt underneath us; nothing to install
	}
	// Catch up: writes that raced with the build are still in old's
	// bins. Bins only grow, so the snapshot's keys are a prefix-set of
	// the current overlay; apply every entry that is new or changed.
	ovC := old.overlay()
	ai := 0
	for c, k := range ovC.Keys {
		for ai < len(ovA.Keys) && ovA.Keys[ai] < k {
			ai++
		}
		if ai < len(ovA.Keys) && ovA.Keys[ai] == k && ovA.Vals[ai] == ovC.Vals[c] && ovA.Dead[ai] == ovC.Dead[c] {
			continue // unchanged since the snapshot; already in the rebuild
		}
		ix.binApply(repl.locate(k), k, ovC.Vals[c], ovC.Dead[c])
	}
	nt := &table{
		firsts: make([]uint64, 0, len(cur.firsts)+len(repl.firsts)-1),
		segs:   make([]*segment, 0, len(cur.segs)+len(repl.segs)-1),
	}
	nt.firsts = append(nt.firsts, cur.firsts[:pos]...)
	nt.segs = append(nt.segs, cur.segs[:pos]...)
	nt.firsts = append(nt.firsts, repl.firsts...)
	nt.segs = append(nt.segs, repl.segs...)
	nt.firsts = append(nt.firsts, cur.firsts[pos+1:]...)
	nt.segs = append(nt.segs, cur.segs[pos+1:]...)
	// Keep the table's floor invariant: the first boundary must not rise.
	// It must not pass the next one either: keys written below the head
	// retrain into segments whose firsts all sit under the old boundary.
	if pos == 0 {
		nt.firsts[0] = min(nt.firsts[0], cur.firsts[0])
	}
	ix.tab.Store(nt)
	// Retire the displaced table and the merged-away segment so
	// epoch-pinned readers finish their descent before reclamation.
	epoch.Retire(cur)
	epoch.Retire(old)
	ix.retrains.Add(1)
	ix.retrainNs.Add(time.Since(start).Nanoseconds())
}

// binApply writes one overlay entry into seg's bin tree, preserving its
// dead flag. Used by the retrain catch-up replay; the caller holds the
// structure lock, so the bin locks taken by descend are uncontended.
func (ix *Index) binApply(seg *segment, key, val uint64, dead bool) {
	b := descend(seg.root, key)
	i, ok := b.Pos(key)
	if !ok {
		seg.binKeys.Add(1)
	}
	b.Set(i, ok, key, val, dead)
	if len(b.Keys) >= ix.cfg.BinCap {
		ix.splitBin(seg, b, key)
	}
	b.mu.Unlock()
}

// overlay returns the segment's bin entries as one run.
func (s *segment) overlay() delta.Run {
	var ov delta.Run
	s.root.appendTo(&ov, 0)
	return ov
}

// appendTo appends the entries >= from of b's leaf bins to ov. The
// pivots route each key to exactly one leaf and order the leaves, so an
// in-order walk is already sorted. Safe concurrent with writers: each
// bin is read under its lock.
func (b *bin) appendTo(ov *delta.Run, from uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.children == nil {
		i := search.LowerBound(b.Keys, from, 0, len(b.Keys))
		ov.Keys = append(ov.Keys, b.Keys[i:]...)
		ov.Vals = append(ov.Vals, b.Vals[i:]...)
		ov.Dead = append(ov.Dead, b.Dead[i:]...)
		return
	}
	for i, c := range b.children {
		if i < len(b.pivots) && b.pivots[i] <= from {
			continue // every key of c is below from
		}
		c.appendTo(ov, from)
	}
}

// base returns the segment's immutable base as a run.
func (s *segment) base() delta.Run { return delta.Run{Keys: s.keys, Vals: s.vals} }

// cursor resumes at a key: segments retrain and tables swap underneath
// a long scan, so the key space is the only stable coordinate. It holds
// one segment at a time: a snapshot of its bin entries from the key on,
// copied into buffers the cursor owns, merged over the segment's
// immutable base. When that merge drains it moves on to the segment
// after. Entries are emitted in strictly ascending key order.
type cursor struct {
	ix    *Index
	key   uint64 // where the next entry is searched from
	next  uint64 // the first key past the current segment
	last  bool   // the current segment is the table's last
	done  bool
	ov    delta.Run         // the current segment's bin entries >= key
	merge index.MergeCursor // ov over the segment's base
}

var cursorPool = sync.Pool{New: func() any { return new(cursor) }}

// Range implements index.Ranger. The cursor may re-snapshot between
// Next calls (the index has concurrent writers), so a scan is not
// atomic with respect to them.
func (ix *Index) Range(start uint64) index.Cursor {
	c := cursorPool.Get().(*cursor)
	c.ix, c.key, c.done = ix, start, false
	c.load()
	return c
}

// Next fills the destination slices with the next live entries. Not
// hotpath-marked: moving to the next segment takes the structure read
// lock and the bin locks, the price of consistency under concurrent
// writers.
func (c *cursor) Next(keys, vals []uint64) int {
	n := 0
	for n < len(keys) && !c.done {
		if m := c.merge.Next(keys[n:], vals[n:]); m > 0 {
			n += m
			c.done = keys[n-1] == ^uint64(0)
			c.key = keys[n-1] + 1
			continue
		}
		if c.last {
			c.done = true
			break
		}
		c.key = c.next
		c.load()
	}
	return n
}

// load positions the cursor at c.key in the segment covering it, under
// the structure read lock: the bin entries >= c.key are copied, the
// base is immutable and only referenced.
func (c *cursor) load() {
	c.ix.structMu.RLock()
	defer c.ix.structMu.RUnlock()
	t := c.ix.tab.Load()
	si := search.Floor(t.firsts, c.key, 0, len(t.firsts))
	seg := t.segs[si]
	if c.last = si+1 == len(t.segs); !c.last {
		c.next = t.firsts[si+1]
	}
	c.ov = delta.Run{Keys: c.ov.Keys[:0], Vals: c.ov.Vals[:0], Dead: c.ov.Dead[:0]}
	seg.root.appendTo(&c.ov, c.key)
	c.merge.Layers = append(c.merge.Layers[:0],
		index.MergeLayer{Keys: c.ov.Keys, Vals: c.ov.Vals, Dead: c.ov.Dead},
		index.MergeLayer{Keys: seg.keys, Vals: seg.vals, Pos: search.LowerBound(seg.keys, c.key, 0, len(seg.keys))})
}

func (c *cursor) Close() {
	clear(c.merge.Layers) // drop the references to the segment's base
	c.ix = nil
	cursorPool.Put(c)
}

// AvgDepth reports the segment locate plus the model stage.
func (ix *Index) AvgDepth() float64 { return 2 }

// Sizes reports the footprint.
func (ix *Index) Sizes() index.Sizes {
	ix.structMu.RLock()
	defer ix.structMu.RUnlock()
	t := ix.tab.Load()
	var st, kb, vb int64
	st += int64(len(t.firsts)) * 8
	for _, s := range t.segs {
		st += 64
		kb += int64(len(s.keys)) * 8
		vb += int64(len(s.vals)) * 8
		bk := s.binKeys.Load()
		kb += bk * 8
		vb += bk * 8
		st += bk // dead flags and bin headers, approximately
	}
	return index.Sizes{Structure: st, Keys: kb, Values: vb}
}
