// Package fitting implements the FITing-tree: error-bounded linear
// segments as leaves (built, per the paper's §III-A1 methodology, with
// the improved optimal PLA rather than the original greedy algorithm)
// under a B+tree inner structure that maps segment start keys to leaves.
//
// Both of the paper's insertion strategies are provided:
//
//   - Inplace: each leaf reserves free slots; inserts shift existing keys
//     to open a gap at the insertion point (cheap space, expensive moves).
//   - Buffer: each leaf carries a sorted side buffer; when the buffer
//     fills, it is merged with the leaf and the node is retrained
//     ("retrain one node", possibly splitting into several segments).
package fitting

import (
	"sync"
	"sync/atomic"
	"time"

	"learnedpieces/internal/btree"
	"learnedpieces/internal/epoch"
	"learnedpieces/internal/index"
	"learnedpieces/internal/learned/delta"
	"learnedpieces/internal/pla"
	"learnedpieces/internal/retrain"
	"learnedpieces/internal/search"
)

// Mode selects the insertion strategy.
type Mode int

const (
	// Inplace reserves free slots inside each leaf (FITing-tree-inp).
	Inplace Mode = iota
	// Buffer gives each leaf a sorted side buffer (FITing-tree-buf).
	Buffer
)

// Config controls segmentation and reserved space.
type Config struct {
	Mode Mode
	// Eps is the maximum segment error; <= 0 picks 32.
	Eps int
	// Reserve is the reserved slot count per leaf (Inplace) or the buffer
	// capacity (Buffer); <= 0 picks 256. Fig 18 sweeps this value.
	Reserve int
}

// DefaultConfig returns the buffer variant with the paper's defaults.
func DefaultConfig() Config { return Config{Mode: Buffer, Eps: 32, Reserve: 256} }

func (c *Config) normalize() {
	if c.Eps <= 0 {
		c.Eps = 32
	}
	if c.Reserve <= 0 {
		c.Reserve = 256
	}
}

type segLeaf struct {
	pla.Model     // predicts local position in keys
	maxErr    int // widened by one per in-place insert/delete
	keys      []uint64
	vals      []uint64
	// Buffer mode: sorted side buffer.
	bufK []uint64
	bufV []uint64
	// retraining marks a leaf whose rebuild is in flight on the pool.
	// The leaf stays fully writable meanwhile (the buffer grows past
	// Reserve, in-place inserts regrow the slice); writes that land here
	// are op-logged and replayed into the replacement leaves at install.
	retraining bool
}

// search finds key in the leaf's base array with an error-bounded
// search around the model prediction; on a miss it returns the
// insertion point inside the window.
func (l *segLeaf) search(key uint64) (int, bool) {
	if len(l.keys) == 0 {
		return 0, false
	}
	p := l.Predict(key, len(l.keys))
	return search.FindBounded(l.keys, key, p-l.maxErr, p+l.maxErr+1)
}

// Index is the FITing-tree.
type Index struct {
	cfg    Config
	inner  *btree.BTree // segment firstKey -> index into leaves
	leaves []*segLeaf
	length int

	// Background retraining (index.AsyncRetrainer): the segmentation and
	// leaf construction run on the pool against a foreground snapshot;
	// results are deposited in the inbox and installed on the writer's
	// timeline (this index has a single-writer contract, so background
	// goroutines never touch the live structure). The op-log records
	// writes that hit a retraining leaf between snapshot and install.
	pool  *retrain.Pool
	gen   uint64 // bumped when pending deposits become invalid (BulkLoad)
	inbox retrain.Inbox[deposit]
	oplog []wop

	retrains  atomic.Int64
	retrainNs atomic.Int64
}

// deposit is one finished background rebuild: the replacement leaves
// for old, tagged with the generation the snapshot was taken under.
type deposit struct {
	old    *segLeaf
	gen    uint64
	leaves []*segLeaf
}

// wop is one op-logged write against a retraining leaf.
type wop struct {
	l   *segLeaf
	key uint64
	val uint64
	del bool
}

// New returns an empty FITing-tree.
func New(cfg Config) *Index {
	cfg.normalize()
	return &Index{cfg: cfg, inner: btree.New()}
}

// Name implements index.Index.
func (ix *Index) Name() string {
	if ix.cfg.Mode == Inplace {
		return "fiting-inp"
	}
	return "fiting-buf"
}

// Len returns the number of stored entries.
func (ix *Index) Len() int { return ix.length }

// RetrainStats implements index.RetrainReporter.
func (ix *Index) RetrainStats() (int64, int64) {
	return ix.retrains.Load(), ix.retrainNs.Load()
}

// SetRetrainPool implements index.AsyncRetrainer: subsequent leaf
// retrains build their replacement segments on the pool.
func (ix *Index) SetRetrainPool(p *retrain.Pool) { ix.pool = p }

// DrainRetrains implements index.AsyncRetrainer: wait for in-flight
// rebuilds and install them, repeating until no install schedules
// further work. Must run on the writer timeline.
func (ix *Index) DrainRetrains() {
	for {
		ix.pool.Drain()
		if !ix.installDeposits() {
			return
		}
	}
}

// BulkLoad segments sorted keys with Opt-PLA and builds the inner B+tree.
func (ix *Index) BulkLoad(keys, values []uint64) error {
	ix.gen++ // pending rebuild deposits target leaves that no longer exist
	ix.oplog = nil
	ix.inner = btree.New()
	ix.leaves = ix.leaves[:0]
	ix.length = len(keys)
	if len(keys) == 0 {
		return nil
	}
	segs := pla.BuildOptPLA(keys, ix.cfg.Eps)
	firsts := make([]uint64, len(segs))
	ids := make([]uint64, len(segs))
	for i, s := range segs {
		l := ix.newLeaf(keys[s.Start:s.End], valSlice(values, s.Start, s.End), s)
		ix.leaves = append(ix.leaves, l)
		firsts[i] = s.FirstKey
		ids[i] = uint64(i)
	}
	return ix.inner.BulkLoad(firsts, ids)
}

func valSlice(values []uint64, start, end int) []uint64 {
	if values == nil {
		return nil
	}
	return values[start:end]
}

// newLeaf copies the key/value run into a leaf with reserved capacity and
// a local version of the segment's model.
func (ix *Index) newLeaf(keys, values []uint64, s pla.Segment) *segLeaf {
	capHint := len(keys)
	if ix.cfg.Mode == Inplace {
		capHint += ix.cfg.Reserve
	}
	l := &segLeaf{
		Model: s.Local(),
		keys:  make([]uint64, len(keys), capHint),
		vals:  make([]uint64, len(keys), capHint),
	}
	copy(l.keys, keys)
	if values != nil {
		copy(l.vals, values)
	}
	// Re-measure the error bound against the leaf-local model: shifting
	// the intercept changes float64 rounding, so the segment's global
	// MaxErr is not a valid bound for the re-anchored predictions.
	for i, k := range l.keys {
		e := l.Predict(k, len(l.keys)) - i
		if e < 0 {
			e = -e
		}
		if e > l.maxErr {
			l.maxErr = e
		}
	}
	return l
}

// leafFor locates the leaf whose key range contains key (the leftmost
// leaf when key precedes every segment). It returns nil only when the
// index has no leaf.
func (ix *Index) leafFor(key uint64) *segLeaf {
	_, id, ok := ix.inner.Floor(key)
	if !ok {
		// Key precedes the first segment.
		if _, id, ok = ix.inner.Min(); !ok {
			return nil
		}
	}
	return ix.leaves[id]
}

// Get returns the value stored under key.
func (ix *Index) Get(key uint64) (uint64, bool) {
	l := ix.leafFor(key)
	if l == nil {
		return 0, false
	}
	if i, ok := l.search(key); ok {
		return l.vals[i], true
	}
	if ix.cfg.Mode == Buffer {
		if i, ok := bufSearch(l.bufK, key); ok {
			return l.bufV[i], true
		}
	}
	return 0, false
}

func bufSearch(buf []uint64, key uint64) (int, bool) {
	return search.Find(buf, key)
}

// Insert stores value under key, replacing any existing value.
func (ix *Index) Insert(key, value uint64) error {
	_, err := ix.InsertReplace(key, value)
	return err
}

// InsertReplace implements index.Upserter: a counted insert either
// overwrote an entry (leaf or buffer) or added one, so the length says
// which.
func (ix *Index) InsertReplace(key, value uint64) (bool, error) {
	ix.installDeposits()
	before := ix.length
	err := ix.insert(key, value, true)
	return ix.length == before, err
}

// insert is the write path shared by Insert and op-log replay. counted
// is false during replay: the original write already adjusted length,
// and the replayed one merely re-applies it to the rebuilt leaves.
func (ix *Index) insert(key, value uint64, counted bool) error {
	l := ix.leafFor(key)
	if l == nil {
		seg := pla.Segment{Model: pla.Model{FirstKey: key}, End: 1}
		nl := ix.newLeaf([]uint64{key}, []uint64{value}, seg)
		ix.leaves = append(ix.leaves, nl)
		if err := ix.inner.Insert(key, uint64(len(ix.leaves)-1)); err != nil {
			return err
		}
		ix.length = 1
		return nil
	}
	if i, ok := l.search(key); ok {
		l.vals[i] = value
		ix.logOp(l, key, value, false)
		return nil
	}
	if ix.cfg.Mode == Buffer {
		i, ok := bufSearch(l.bufK, key)
		if ok {
			l.bufV[i] = value
			ix.logOp(l, key, value, false)
			return nil
		}
		l.bufK = append(l.bufK, 0)
		l.bufV = append(l.bufV, 0)
		copy(l.bufK[i+1:], l.bufK[i:])
		copy(l.bufV[i+1:], l.bufV[i:])
		l.bufK[i] = key
		l.bufV[i] = value
		if counted {
			ix.length++
		}
		ix.logOp(l, key, value, false)
		if len(l.bufK) >= ix.cfg.Reserve && !l.retraining {
			ix.scheduleRetrain(l)
		}
		return nil
	}
	// Inplace: shift to open a gap at the insertion point. A full leaf
	// schedules its rebuild first and the key goes to whichever leaf
	// covers it then: without a pool that is a fresh leaf with its
	// reserve restored; with one, the old leaf, which keeps absorbing
	// writes (append regrows the slice) until the rebuild installs and
	// replays them.
	if len(l.keys) == cap(l.keys) && !l.retraining {
		ix.scheduleRetrain(l)
		l = ix.leafFor(key)
	}
	i, _ := l.search(key)
	// search returns a window-local position for misses; recover the exact
	// rank with a bounded scan.
	for i > 0 && l.keys[i-1] > key {
		i--
	}
	for i < len(l.keys) && l.keys[i] < key {
		i++
	}
	l.keys = append(l.keys, 0)
	l.vals = append(l.vals, 0)
	copy(l.keys[i+1:], l.keys[i:])
	copy(l.vals[i+1:], l.vals[i:])
	l.keys[i] = key
	l.vals[i] = value
	l.maxErr++ // positions shifted by at most one more slot
	if counted {
		ix.length++
	}
	ix.logOp(l, key, value, false)
	return nil
}

// logOp records a write against a retraining leaf for replay at install.
func (ix *Index) logOp(l *segLeaf, key, val uint64, del bool) {
	if l.retraining {
		ix.oplog = append(ix.oplog, wop{l: l, key: key, val: val, del: del})
	}
}

// scheduleRetrain hands the leaf's rebuild to the pool ("retrain one
// node"): snapshot now (the leaf merged with its buffer, so the task
// never reads live leaf state), segment and build replacement leaves
// aside, deposit for installation on the writer timeline. A nil pool
// runs the task inline, so the rebuild is installed on return.
func (ix *Index) scheduleRetrain(l *segLeaf) {
	if l.retraining {
		return
	}
	l.retraining = true
	// Buffer keys are never in the base, so the merge drops nothing.
	m := delta.Merge(delta.Run{Keys: l.bufK, Vals: l.bufV}, delta.Run{Keys: l.keys, Vals: l.vals}, false)
	gen := ix.gen
	ix.pool.Submit(l, func() {
		start := time.Now()
		nls := ix.buildLeaves(m.Keys, m.Vals)
		ix.retrains.Add(1)
		ix.retrainNs.Add(time.Since(start).Nanoseconds())
		ix.inbox.Put(deposit{old: l, gen: gen, leaves: nls})
	})
	ix.installDeposits() // a task that ran inline has deposited already
}

// installDeposits swaps finished rebuilds into the inner tree and
// replays the op-logged writes that raced with them. Runs on the writer
// timeline only. Reports whether anything was installed.
func (ix *Index) installDeposits() bool {
	deps := ix.inbox.TakeAll()
	if len(deps) == 0 {
		return false
	}
	for _, d := range deps {
		if d.gen != ix.gen {
			continue
		}
		ix.swapLeaf(d.old, d.leaves)
		// Replay the writes that hit the old leaf after the snapshot, in
		// order, against the freshly installed leaves.
		log := ix.takeOplog(d.old)
		for _, op := range log {
			if op.del {
				ix.del(op.key, false)
			} else {
				_ = ix.insert(op.key, op.val, false)
			}
		}
		// The displaced leaf leaves the tree here; retire it so in-flight
		// epoch-pinned readers finish with it before it is reclaimed.
		epoch.Retire(d.old)
	}
	return true
}

// takeOplog removes and returns the ops logged against l, preserving
// order; ops for other retraining leaves stay queued.
func (ix *Index) takeOplog(l *segLeaf) []wop {
	var mine []wop
	rest := ix.oplog[:0]
	for _, op := range ix.oplog {
		if op.l == l {
			mine = append(mine, op)
		} else {
			rest = append(rest, op)
		}
	}
	ix.oplog = rest
	return mine
}

// buildLeaves segments sorted keys into fresh leaves (none for no keys).
func (ix *Index) buildLeaves(keys, vals []uint64) []*segLeaf {
	if len(keys) == 0 {
		return nil
	}
	segs := pla.BuildOptPLA(keys, ix.cfg.Eps)
	nls := make([]*segLeaf, len(segs))
	for i, s := range segs {
		nls[i] = ix.newLeaf(keys[s.Start:s.End], vals[s.Start:s.End], s)
	}
	return nls
}

// swapLeaf replaces old by nls in the inner tree. The first replacement
// takes over old's id, so ix.leaves stops referencing the displaced leaf
// (its slot is cleared when there is no replacement); the others append.
func (ix *Index) swapLeaf(old *segLeaf, nls []*segLeaf) {
	id, _ := ix.inner.Get(old.FirstKey)
	ix.inner.Delete(old.FirstKey)
	ix.leaves[id] = nil
	for i, nl := range nls {
		if i > 0 {
			id = uint64(len(ix.leaves))
			ix.leaves = append(ix.leaves, nil)
		}
		ix.leaves[id] = nl
		// The inner btree's Insert error is interface-shaped and always nil.
		_ = ix.inner.Insert(nl.FirstKey, id)
	}
}

// Delete removes key and reports whether it was present.
func (ix *Index) Delete(key uint64) bool {
	ix.installDeposits()
	return ix.del(key, true)
}

// del is the removal path shared by Delete and op-log replay.
func (ix *Index) del(key uint64, counted bool) bool {
	l := ix.leafFor(key)
	if l == nil {
		return false
	}
	if i, ok := l.search(key); ok {
		copy(l.keys[i:], l.keys[i+1:])
		copy(l.vals[i:], l.vals[i+1:])
		l.keys = l.keys[:len(l.keys)-1]
		l.vals = l.vals[:len(l.vals)-1]
		l.maxErr++
		if counted {
			ix.length--
		}
		ix.logOp(l, key, 0, true)
		return true
	}
	if ix.cfg.Mode == Buffer {
		if i, ok := bufSearch(l.bufK, key); ok {
			l.bufK = append(l.bufK[:i], l.bufK[i+1:]...)
			l.bufV = append(l.bufV[:i], l.bufV[i+1:]...)
			if counted {
				ix.length--
			}
			ix.logOp(l, key, 0, true)
			return true
		}
	}
	return false
}

// cursor streams the FITing-tree leaf-sequentially: the inner B+tree's
// own cursor yields segment ids in firstKey order (refilled in small
// batches into fixed scratch), and each segment leaf is drained with a
// two-pointer merge of its base array and sorted side buffer.
type cursor struct {
	ix    *Index
	inner index.Cursor
	l     *segLeaf
	i, j  int
	start uint64

	idKeys [16]uint64
	ids    [16]uint64
	idN    int
	idPos  int
}

var cursorPool = sync.Pool{New: func() any { return new(cursor) }}

// Range implements index.Ranger: one Floor descent positions the inner
// cursor at the covering segment, then the walk is leaf-sequential.
// No mutation while the cursor is open.
func (ix *Index) Range(start uint64) index.Cursor {
	from := uint64(0)
	if k, _, ok := ix.inner.Floor(start); ok {
		from = k
	}
	c := cursorPool.Get().(*cursor)
	c.ix = ix
	c.inner = ix.inner.Range(from)
	c.l, c.i, c.j = nil, 0, 0
	c.start = start
	c.idN, c.idPos = 0, 0
	return c
}

// Next fills the destination slices with the next entries in key order.
// Not hotpath-marked: the segment-id source is reached through the
// index.Cursor interface, which the call-graph analyzer cannot resolve
// to its implementation; the walk itself allocates nothing.
func (c *cursor) Next(keys, vals []uint64) int {
	n := 0
	for n < len(keys) {
		if c.l == nil {
			if c.idPos >= c.idN {
				c.idN = c.inner.Next(c.idKeys[:], c.ids[:])
				c.idPos = 0
				if c.idN == 0 {
					break
				}
			}
			l := c.ix.leaves[c.ids[c.idPos]]
			c.idPos++
			c.l = l
			// Lower-bounding every leaf on start (not just the first)
			// also filters the leftmost leaf's buffered keys that precede
			// its firstKey; for later leaves it resolves to 0 immediately.
			c.i = search.LowerBound(l.keys, c.start, 0, len(l.keys))
			c.j = search.LowerBound(l.bufK, c.start, 0, len(l.bufK))
		}
		l := c.l
		for n < len(keys) && (c.i < len(l.keys) || c.j < len(l.bufK)) {
			if c.j >= len(l.bufK) || (c.i < len(l.keys) && l.keys[c.i] < l.bufK[c.j]) {
				keys[n], vals[n] = l.keys[c.i], l.vals[c.i]
				c.i++
			} else {
				keys[n], vals[n] = l.bufK[c.j], l.bufV[c.j]
				c.j++
			}
			n++
		}
		if c.i >= len(l.keys) && c.j >= len(l.bufK) {
			c.l = nil
		}
	}
	return n
}

func (c *cursor) Close() {
	c.inner.Close()
	c.ix, c.inner, c.l = nil, nil, nil
	cursorPool.Put(c)
}

// AvgDepth reports the inner B+tree depth (Table II).
func (ix *Index) AvgDepth() float64 { return ix.inner.AvgDepth() }

// LeafCount returns the live segment count.
func (ix *Index) LeafCount() int { return ix.inner.Len() }

// Sizes reports the footprint: inner tree and models are structure.
func (ix *Index) Sizes() index.Sizes {
	inner := ix.inner.Sizes()
	var keyBytes, valBytes, modelBytes int64
	index.Scan(ix.inner, 0, 0, func(_, id uint64) bool {
		l := ix.leaves[id]
		modelBytes += 48
		keyBytes += int64(cap(l.keys)+len(l.bufK)) * 8
		valBytes += int64(cap(l.vals)+len(l.bufV)) * 8
		return true
	})
	return index.Sizes{
		Structure: inner.Structure + inner.Keys + inner.Values + modelBytes,
		Keys:      keyBytes,
		Values:    valBytes,
	}
}
