// Package xindex implements XIndex (Tang et al.), the only learned index
// in the paper's evaluation that supports concurrent writes (Table I).
//
// Structure: the paper's two-layer RMI over the group pivots (pla.RMI,
// the same piece core composes) above group nodes. Each group holds an immutable sorted data
// array approximated by fixed-partition least-squares models (LSA), plus
// a sorted delta buffer for inserts and a temporary buffer that absorbs
// writes while a two-phase compaction is merging buffer and data — the
// paper's mechanism for staying writable during retraining.
//
// Concurrency: per-group RWMutexes (standing in for the paper's
// optimistic concurrency + RCU), an atomically swapped root for group
// splits, and retirement markers that redirect operations that raced
// with a split.
package xindex

import (
	"runtime"
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

// Config controls group sizing and compaction.
type Config struct {
	// GroupSize is the target keys per group at build; <= 0 picks 4096.
	GroupSize int
	// BufferThreshold triggers compaction; <= 0 picks 256.
	BufferThreshold int
	// SegLen is the keys-per-model partition inside a group (LSA);
	// <= 0 picks 256.
	SegLen int
}

// DefaultConfig returns the configuration used by the benchmarks.
func DefaultConfig() Config { return Config{} }

func (c *Config) normalize() {
	if c.GroupSize <= 0 {
		c.GroupSize = 4096
	}
	if c.BufferThreshold <= 0 {
		c.BufferThreshold = 256
	}
	if c.SegLen <= 0 {
		c.SegLen = 256
	}
}

// groupData is the immutable sorted snapshot of a group: its entries
// (no tombstones) and the LSA models over them.
type groupData struct {
	delta.Run
	segs []pla.Segment
}

func newGroupData(r delta.Run, segLen int) *groupData {
	return &groupData{Run: r, segs: pla.BuildLSA(r.Keys, segLen)}
}

func (gd *groupData) search(key uint64) (int, bool) {
	if len(gd.Keys) == 0 {
		return 0, false
	}
	s := pla.FindSegment(gd.segs, key)
	p := s.Predict(key)
	return search.FindBounded(gd.Keys, key, p-s.MaxErr, p+s.MaxErr+1)
}

// group is one group node. buf is its delta buffer (the shared
// tombstoned run), tmp the one that absorbs writes while compacting.
type group struct {
	mu         sync.RWMutex
	pivot      uint64
	data       *groupData
	buf        *delta.Run
	tmp        *delta.Run
	compacting bool
	retired    bool // split away; operations must retry from the root
}

// lookupLocked searches tmp -> buf -> data (newest first). Caller holds
// at least the read lock.
func (g *group) lookupLocked(key uint64) (val uint64, live, found bool) {
	if g.compacting && g.tmp != nil {
		if v, live, ok := g.tmp.Find(key); ok {
			return v, live, true
		}
	}
	if v, live, ok := g.buf.Find(key); ok {
		return v, live, true
	}
	if i, ok := g.data.search(key); ok {
		return g.data.Vals[i], true, true
	}
	return 0, false, false
}

// layers returns the group's layers positioned at start, newest first,
// in the caller's storage. Caller holds at least the read lock.
func (g *group) layers(ls *[3]index.MergeLayer, start uint64) []index.MergeLayer {
	layers := ls[:0]
	if g.compacting && g.tmp != nil {
		layers = g.tmp.AppendLayer(layers, start)
	}
	layers = g.buf.AppendLayer(layers, start)
	return g.data.AppendLayer(layers, start)
}

// root is the immutable top structure, swapped atomically on splits:
// a two-stage RMI over the group pivots.
type root struct {
	pivots []uint64
	groups []*group
	rmi    *pla.RMI
}

func buildRoot(groups []*group) *root {
	r := &root{groups: groups, pivots: make([]uint64, len(groups)), rmi: pla.NewRMI(0)}
	for i, g := range groups {
		r.pivots[i] = g.pivot
	}
	r.rmi.Build(r.pivots)
	return r
}

// groupFor returns the group whose range contains key.
func (r *root) groupFor(key uint64) *group { return r.groups[r.rmi.Locate(key)] }

// Index is the XIndex.
type Index struct {
	cfg     Config
	root    atomic.Pointer[root]
	splitMu sync.Mutex // serialises root swaps
	length  atomic.Int64
	pool    *retrain.Pool // nil: compaction completes on the inserting goroutine

	retrains  atomic.Int64
	retrainNs atomic.Int64
}

// New returns an empty XIndex.
func New(cfg Config) *Index {
	cfg.normalize()
	ix := &Index{cfg: cfg}
	g := &group{data: &groupData{}, buf: &delta.Run{}}
	ix.root.Store(buildRoot([]*group{g}))
	return ix
}

// Name implements index.Index.
func (ix *Index) Name() string { return "xindex" }

// Len returns the number of live entries.
func (ix *Index) Len() int { return int(ix.length.Load()) }

// ConcurrentWrites reports that concurrent Inserts are safe — the
// property only XIndex has among the paper's learned indexes.
func (ix *Index) ConcurrentWrites() bool { return true }

// RetrainStats implements index.RetrainReporter.
func (ix *Index) RetrainStats() (int64, int64) {
	return ix.retrains.Load(), ix.retrainNs.Load()
}

// SetRetrainPool implements index.AsyncRetrainer: subsequent compactions
// run their merge phase on the pool. Must be called before the index
// serves concurrent operations.
func (ix *Index) SetRetrainPool(p *retrain.Pool) { ix.pool = p }

// DrainRetrains implements index.AsyncRetrainer. Compactions install
// their own results under the group lock, so waiting for the pool is
// enough.
func (ix *Index) DrainRetrains() { ix.pool.Drain() }

// BulkLoad partitions sorted keys into groups and trains all models.
func (ix *Index) BulkLoad(keys, values []uint64) error {
	var groups []*group
	if len(keys) == 0 {
		groups = []*group{{data: &groupData{}, buf: &delta.Run{}}}
	}
	for start := 0; start < len(keys); start += ix.cfg.GroupSize {
		end := start + ix.cfg.GroupSize
		if end > len(keys) {
			end = len(keys)
		}
		var vals []uint64
		if values != nil {
			vals = append([]uint64(nil), values[start:end]...)
		} else {
			vals = make([]uint64, end-start)
		}
		gd := newGroupData(delta.Run{Keys: append([]uint64(nil), keys[start:end]...), Vals: vals}, ix.cfg.SegLen)
		groups = append(groups, &group{pivot: keys[start], data: gd, buf: &delta.Run{}})
	}
	ix.root.Store(buildRoot(groups))
	ix.length.Store(int64(len(keys)))
	return nil
}

// Get returns the value stored under key.
func (ix *Index) Get(key uint64) (uint64, bool) {
	for {
		g := ix.root.Load().groupFor(key)
		g.mu.RLock()
		if g.retired {
			g.mu.RUnlock()
			runtime.Gosched() // let the splitter publish the new root
			continue
		}
		v, live, found := g.lookupLocked(key)
		g.mu.RUnlock()
		if !found || !live {
			return 0, false
		}
		return v, true
	}
}

// Insert stores value under key, replacing any existing value. Safe for
// concurrent use.
func (ix *Index) Insert(key, value uint64) error {
	ix.upsert(key, value, false)
	return nil
}

// InsertReplace implements index.Upserter: upsert already reports, under
// the group lock, whether the key was live before the write.
func (ix *Index) InsertReplace(key, value uint64) (bool, error) {
	return ix.upsert(key, value, false), nil
}

// Delete removes key (via a tombstone) and reports whether it was live.
func (ix *Index) Delete(key uint64) bool {
	return ix.upsert(key, 0, true)
}

// upsert writes (key, value, dead) into the right buffer. It returns
// whether the key was live before the operation.
func (ix *Index) upsert(key, value uint64, dead bool) bool {
	for {
		g := ix.root.Load().groupFor(key)
		g.mu.Lock()
		if g.retired {
			g.mu.Unlock()
			runtime.Gosched() // let the splitter publish the new root
			continue
		}
		_, wasLive, _ := g.lookupLocked(key)
		if dead && !wasLive {
			g.mu.Unlock()
			return false
		}
		if g.compacting {
			g.tmp.Upsert(key, value, dead)
		} else {
			g.buf.Upsert(key, value, dead)
		}
		switch {
		case dead:
			ix.length.Add(-1)
		case !wasLive:
			ix.length.Add(1)
		}
		needCompact := !g.compacting && len(g.buf.Keys) >= ix.cfg.BufferThreshold
		if !needCompact {
			g.mu.Unlock()
			return wasLive
		}
		// Two-phase compaction, phase one (still under the lock): mark
		// compacting and open the temporary buffer. Concurrent readers
		// keep seeing data+buf+tmp; concurrent writers land in tmp.
		g.compacting = true
		g.tmp = &delta.Run{}
		data, buf := g.data, g.buf
		g.mu.Unlock()
		// Phase two — the merge, model retraining and installation —
		// runs wherever the pool says: a background worker in async
		// mode, inline right here otherwise. The compacting flag
		// guarantees at most one in-flight compaction per group, so the
		// pool's per-key coalescing never has to drop one.
		ix.pool.Submit(g, func() { ix.finishCompact(g, data, buf) })
		return wasLive
	}
}

// finishCompact is phase two of the compaction: merge data and buffer,
// retrain the group models, and install the result under the group
// lock, promoting tmp to buf and splitting the group when it outgrew
// its bound.
func (ix *Index) finishCompact(g *group, data *groupData, buf *delta.Run) {
	start := time.Now()
	merged := newGroupData(delta.Merge(*buf, data.Run, false), ix.cfg.SegLen)

	g.mu.Lock()
	g.data = merged
	g.buf = g.tmp
	g.tmp = nil
	g.compacting = false
	// The pre-merge data and delta are displaced; retire them for the
	// epoch-pinned readers that may still be walking them.
	epoch.Retire(data)
	epoch.Retire(buf)
	if len(merged.Keys) > 2*ix.cfg.GroupSize {
		ix.splitGroup(g, merged) // releases g.mu
		ix.retrains.Add(1)
		ix.retrainNs.Add(time.Since(start).Nanoseconds())
		return
	}
	// If writes outran this compaction (tmp, now promoted, is already
	// over threshold), go again: without this a backlogged pool leaves
	// ever-growing buffers behind — Drain must converge to a compacted
	// index, not just an empty queue.
	again := len(g.buf.Keys) >= ix.cfg.BufferThreshold
	var data2 *groupData
	var buf2 *delta.Run
	if again {
		g.compacting = true
		g.tmp = &delta.Run{}
		data2, buf2 = g.data, g.buf
	}
	g.mu.Unlock()
	ix.retrains.Add(1)
	ix.retrainNs.Add(time.Since(start).Nanoseconds())
	if again {
		ix.pool.Submit(g, func() { ix.finishCompact(g, data2, buf2) })
	}
}

// splitGroup divides g back into GroupSize-sized groups and swaps in a
// new root. The split is k-way, not binary: a backlogged background
// compaction can hand over a merge many times the bound, and halving it
// once would leave oversized groups (slow in-group locates) behind.
// Called with g.mu held; releases it. Lock order is always
// group -> splitMu.
func (ix *Index) splitGroup(g *group, merged *groupData) {
	n := len(merged.Keys)
	parts := n / ix.cfg.GroupSize
	if parts < 2 {
		parts = 2
	}
	per := (n + parts - 1) / parts
	news := make([]*group, 0, parts)
	for lo := 0; lo < n; lo += per {
		hi := min(lo+per, n)
		pivot := merged.Keys[lo]
		if lo == 0 {
			// The first part keeps g's boundary, unless g is the first
			// group and took keys below it: then its parts' pivots all
			// sit under g's, and keeping it would unsort the pivots.
			pivot = min(g.pivot, pivot)
		}
		part := delta.Run{Keys: merged.Keys[lo:hi], Vals: merged.Vals[lo:hi]}
		news = append(news, &group{pivot: pivot, data: newGroupData(part, ix.cfg.SegLen), buf: &delta.Run{}})
	}
	// Distribute the (fresh) buffer by pivot.
	for i, k := range g.buf.Keys {
		dst := news[0]
		for j := len(news) - 1; j > 0; j-- {
			if k >= news[j].pivot {
				dst = news[j]
				break
			}
		}
		dst.buf.Upsert(k, g.buf.Vals[i], g.buf.Dead[i])
	}
	g.retired = true
	g.mu.Unlock()

	ix.splitMu.Lock()
	cur := ix.root.Load()
	groups := make([]*group, 0, len(cur.groups)+parts-1)
	for _, og := range cur.groups {
		if og == g {
			groups = append(groups, news...)
		} else {
			groups = append(groups, og)
		}
	}
	ix.root.Store(buildRoot(groups))
	// Retire the displaced root array and the split group: readers that
	// resolved through the old root may still be inside either.
	epoch.Retire(cur)
	epoch.Retire(g)
	ix.splitMu.Unlock()

	// The carried-over buffer can itself be over threshold when the
	// compaction ran behind a backlog; compact those new groups too so a
	// drain converges to a compacted index.
	for _, ng := range news {
		ng.mu.Lock()
		if !ng.compacting && len(ng.buf.Keys) >= ix.cfg.BufferThreshold {
			ng.compacting = true
			ng.tmp = &delta.Run{}
			data, buf := ng.data, ng.buf
			ng.mu.Unlock()
			ix.pool.Submit(ng, func() { ix.finishCompact(ng, data, buf) })
		} else {
			ng.mu.Unlock()
		}
	}
}

// cursor resumes at a key rather than a position: groups split and
// roots swap underneath a long scan, so the only stable coordinate is
// the key space. Each Next re-resolves the covering group from the
// current root and merges its layers under its read lock, so a scan is
// consistent one group at a time, not atomic with respect to
// concurrent writers.
type cursor struct {
	ix   *Index
	key  uint64
	done bool
}

var cursorPool = sync.Pool{New: func() any { return new(cursor) }}

// Range implements index.Ranger. The cursor may re-snapshot between
// Next calls (the index has concurrent writers); entries are still
// emitted in strictly ascending key order with no duplicates.
func (ix *Index) Range(start uint64) index.Cursor {
	c := cursorPool.Get().(*cursor)
	c.ix, c.key, c.done = ix, start, false
	return c
}

// Next fills the destination slices with the next live entries: each
// step opens a merge cursor over one group's layers under its read lock
// and pulls straight into the caller's slices. Not hotpath-marked: the
// group lock is XIndex's read protocol.
func (c *cursor) Next(keys, vals []uint64) int {
	if c.done {
		return 0
	}
	n := 0
	r := c.ix.root.Load()
	gi := r.rmi.Locate(c.key)
	for n < len(keys) && gi < len(r.groups) {
		g := r.groups[gi]
		g.mu.RLock()
		if g.retired {
			g.mu.RUnlock()
			r = c.ix.root.Load()
			gi = r.rmi.Locate(c.key)
			continue
		}
		var ls [3]index.MergeLayer
		cur := index.NewMergeCursor(g.layers(&ls, c.key))
		m := cur.Next(keys[n:], vals[n:])
		cur.Close()
		g.mu.RUnlock()
		if m > 0 {
			n += m
			last := keys[n-1]
			if last == ^uint64(0) {
				c.done = true
				return n
			}
			c.key = last + 1
		}
		if n < len(keys) {
			gi++
		}
	}
	if n < len(keys) {
		c.done = true
	}
	return n
}

func (c *cursor) Close() {
	c.ix = nil
	cursorPool.Put(c)
}

// AvgDepth reports the root RMI's two stages (Table II).
func (ix *Index) AvgDepth() float64 { return ix.root.Load().rmi.Depth() }

// GroupCount returns the current number of groups.
func (ix *Index) GroupCount() int { return len(ix.root.Load().groups) }

// Sizes reports the footprint. XIndex structure is the largest among the
// learned indexes (Table III) because every group carries models and
// buffers.
func (ix *Index) Sizes() index.Sizes {
	r := ix.root.Load()
	var st, kb, vb int64
	st += int64(len(r.pivots))*8 + r.rmi.SizeBytes()
	for _, g := range r.groups {
		g.mu.RLock()
		st += int64(len(g.data.segs))*56 + 64
		kb += int64(len(g.data.Keys)+len(g.buf.Keys)) * 8
		vb += int64(len(g.data.Vals)+len(g.buf.Vals)) * 8
		g.mu.RUnlock()
	}
	return index.Sizes{Structure: st, Keys: kb, Values: vb}
}
