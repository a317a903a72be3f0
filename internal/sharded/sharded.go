// Package sharded turns a single-writer ordered index into a
// concurrently writable one by range-partitioning the key space into
// shards, each backed by its own inner index. This is the honest Go
// stand-in for the paper's natively concurrent traditional baselines
// (Masstree-class) in the Fig 14 multi-threaded write experiment:
// writers to different key ranges proceed in parallel, scans remain
// globally ordered.
//
// Reads are lock-free on the fast path. Each shard carries a version
// stamp (odd = a writer is mutating) plus a registered-reader count;
// a reader checks the stamp, registers, re-validates the stamp, and
// only then traverses the inner structure — the writer, who is the
// only mutator (per-shard single-writer under the shard mutex), bumps
// the stamp to odd and waits for registered readers to drain before
// touching the structure. Unlike a raw seqlock this never lets a read
// overlap a mutation (which Go's race detector would rightly flag);
// like one, the uncontended read path is two atomic adds and two
// atomic loads, with no mutex and no cache-line ping-pong between
// readers of different shards. Readers that keep losing the validation
// race fall back to the shard's writer mutex; both events are counted
// in the epoch package's optimistic-read telemetry.
package sharded

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"learnedpieces/internal/epoch"
	"learnedpieces/internal/index"
	"learnedpieces/internal/parallel"
	"learnedpieces/internal/retrain"
)

// optimisticRetries bounds the validation spins before a reader gives
// up and takes the shard mutex: long enough to ride out a stamp bump,
// short enough that a reader stuck behind a slow mutation (an inline
// retrain can take milliseconds) parks on the mutex instead of burning
// a core.
const optimisticRetries = 128

// Index is the range-partitioned wrapper.
type Index struct {
	boundaries []uint64 // shard i covers [boundaries[i-1], boundaries[i])
	shards     []*shard
	name       string
	scannable  bool // all shards implement index.Ranger (one factory => uniform)
}

// shard is one partition. seq and active are the read-protocol state
// (see the package comment), each padded onto its own cache line so a
// writer draining active does not collide with readers bumping it on a
// neighbouring shard. mu serializes writers (and carries the fallback
// read path); the inner index itself is only ever mutated by the mu
// holder after the reader drain.
type shard struct {
	seq    atomic.Uint64 // version stamp: odd while a writer is mutating
	_      [56]byte
	active atomic.Int64 // registered optimistic readers
	_      [56]byte

	mu  sync.Mutex // writers; also the reader fallback
	idx index.Index
}

// beginRead registers the caller as an optimistic reader. On true the
// caller may traverse the inner index without locks until endRead; on
// false a writer is (or was just) active and the caller must retry or
// fall back. The re-validation after registering is what closes the
// race with a writer that bumped the stamp between our first load and
// our Add: either the writer's drain sees our registration and waits,
// or we see its odd stamp and deregister.
//
//pieces:hotpath
func (sh *shard) beginRead() bool {
	if sh.seq.Load()&1 != 0 {
		return false
	}
	sh.active.Add(1)
	if sh.seq.Load()&1 != 0 {
		sh.active.Add(-1)
		return false
	}
	return true
}

// endRead deregisters an optimistic reader.
//
//pieces:hotpath
func (sh *shard) endRead() { sh.active.Add(-1) }

// lockWrite takes the shard's writer role: serialize against other
// writers, announce the mutation (odd stamp — new readers back off),
// then wait for registered readers to drain. Announcing first gives
// the writer preference: a steady stream of readers cannot starve it,
// because none of them can re-register against an odd stamp.
func (sh *shard) lockWrite() {
	sh.mu.Lock()
	sh.seq.Add(1)
	for sh.active.Load() != 0 {
		runtime.Gosched()
	}
}

// unlockWrite publishes the mutation (even stamp) and releases the
// writer role.
func (sh *shard) unlockWrite() {
	sh.seq.Add(1)
	sh.mu.Unlock()
}

// BoundariesFromSample picks shard boundaries from a sorted key sample so
// shards receive balanced load.
func BoundariesFromSample(sorted []uint64, shards int) []uint64 {
	if shards < 2 || len(sorted) == 0 {
		return nil
	}
	out := make([]uint64, 0, shards-1)
	for i := 1; i < shards; i++ {
		out = append(out, sorted[i*len(sorted)/shards])
	}
	return out
}

// New builds a sharded index with len(boundaries)+1 shards, each created
// by factory. Boundaries must be sorted ascending.
func New(factory func() index.Index, boundaries []uint64) *Index {
	s := &Index{boundaries: boundaries}
	for i := 0; i <= len(boundaries); i++ {
		s.shards = append(s.shards, &shard{idx: factory()})
	}
	s.name = s.shards[0].idx.Name() + "+sharded"
	_, s.scannable = s.shards[0].idx.(index.Ranger)
	return s
}

// Caps implements index.Capser, which is what lets the wrapper *mask*
// capabilities instead of over-promising them: the wrapper's methods
// exist unconditionally (Range, Delete, ... no-op politely when the inner
// type lacks them), so plain interface probing would report every
// capability as present. The descriptor advertises the wrapper's own
// surface (scans, concurrent writes) and defers the rest to a
// probe shard — one factory, so one probe decides for all shards.
func (s *Index) Caps() index.Caps {
	inner := index.CapsOf(s.shards[0].idx)
	return index.Caps{
		Range:            s.scannable, // per-shard pulls through the inner Ranger
		Delete:           inner.Delete,
		Depth:            inner.Depth,
		Retrain:          inner.Retrain,
		AsyncRetrain:     inner.AsyncRetrain,
		ConcurrentWrites: true,
	}
}

// SetRetrainPool forwards the pool to every shard's inner index (no-op
// when the inner type does not support background retraining; Caps
// masks AsyncRetrain then). Shards share the one pool — submission keys
// are per-structure pointers, so shards never coalesce each other away.
func (s *Index) SetRetrainPool(p *retrain.Pool) {
	for _, sh := range s.shards {
		sh.lockWrite()
		if ar, ok := sh.idx.(index.AsyncRetrainer); ok {
			ar.SetRetrainPool(p)
		}
		sh.unlockWrite()
	}
}

// DrainRetrains drains every shard as its writer — holding the writer
// role makes the draining goroutine the shard's writer timeline, which
// is what the AsyncRetrainer contract requires of single-writer inners,
// and the reader drain keeps the install invisible to optimistic reads.
func (s *Index) DrainRetrains() {
	for _, sh := range s.shards {
		sh.lockWrite()
		if ar, ok := sh.idx.(index.AsyncRetrainer); ok {
			ar.DrainRetrains()
		}
		sh.unlockWrite()
	}
}

// AvgDepth reports the Len-weighted average shard depth, zero when the
// inner index type does not report depth (Caps masks Depth then). A
// rare probe path: it reads under the shard mutex (which excludes
// mutators without disturbing optimistic readers).
func (s *Index) AvgDepth() float64 {
	var sum float64
	var n int
	for _, sh := range s.shards {
		sh.mu.Lock()
		if d, ok := sh.idx.(index.DepthReporter); ok {
			l := sh.idx.Len()
			sum += d.AvgDepth() * float64(l)
			n += l
		}
		sh.mu.Unlock()
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RetrainStats sums the shards' retraining counters (zero when the inner
// index type does not report them; Caps masks Retrain then). Like
// AvgDepth it reads under the shard mutex.
func (s *Index) RetrainStats() (count, totalNs int64) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		if r, ok := sh.idx.(index.RetrainReporter); ok {
			c, ns := r.RetrainStats()
			count += c
			totalNs += ns
		}
		sh.mu.Unlock()
	}
	return count, totalNs
}

// Name implements index.Index.
func (s *Index) Name() string { return s.name }

// shardIdx returns the shard number covering key.
func (s *Index) shardIdx(key uint64) int {
	return sort.Search(len(s.boundaries), func(i int) bool { return s.boundaries[i] > key })
}

// shardLen reads one shard's Len under the read protocol.
func shardLen(sh *shard, stripe uint64) int {
	epoch.ReadAttempt(stripe)
	for try := 0; try < optimisticRetries; try++ {
		if sh.beginRead() {
			n := sh.idx.Len()
			sh.endRead()
			return n
		}
		epoch.ReadRetry(stripe)
		runtime.Gosched()
	}
	epoch.ReadFallback(stripe)
	sh.mu.Lock()
	n := sh.idx.Len()
	sh.mu.Unlock()
	return n
}

// Len returns the number of stored entries across shards. Each shard is
// read under its own short registration, so a concurrent writer is
// stalled for at most one shard's Len, not the whole sweep.
func (s *Index) Len() int {
	total := 0
	for i, sh := range s.shards {
		total += shardLen(sh, uint64(i))
	}
	return total
}

// Get returns the value stored under key. The fast path takes no lock:
// register on the shard, validate the version stamp, probe the inner
// index, deregister. Contended attempts retry and finally park on the
// shard mutex (counted as a fallback in the epoch read telemetry).
//
//pieces:hotpath
func (s *Index) Get(key uint64) (uint64, bool) {
	i := s.shardIdx(key)
	sh := s.shards[i]
	epoch.ReadAttempt(uint64(i))
	for try := 0; try < optimisticRetries; try++ {
		if sh.beginRead() {
			v, ok := sh.idx.Get(key)
			sh.endRead()
			return v, ok
		}
		epoch.ReadRetry(uint64(i))
		runtime.Gosched()
	}
	return s.getSlow(sh, uint64(i), key)
}

// getSlow is the contended tail of Get: park on the shard mutex, which
// excludes any mutator for the duration of the probe.
func (s *Index) getSlow(sh *shard, stripe, key uint64) (uint64, bool) {
	epoch.ReadFallback(stripe)
	sh.mu.Lock()
	v, ok := sh.idx.Get(key)
	sh.mu.Unlock()
	return v, ok
}

// Insert stores value under key; writers to different shards run in
// parallel.
func (s *Index) Insert(key, value uint64) error {
	_, err := s.InsertReplace(key, value)
	return err
}

// InsertReplace implements index.Upserter: the inner index's upsert runs
// under the shard writer role, so concurrent writers of the same new key
// cannot both observe it as absent.
func (s *Index) InsertReplace(key, value uint64) (bool, error) {
	sh := s.shards[s.shardIdx(key)]
	sh.lockWrite()
	defer sh.unlockWrite()
	return sh.idx.InsertReplace(key, value)
}

// Delete removes key if the inner index supports deletion.
func (s *Index) Delete(key uint64) bool {
	sh := s.shards[s.shardIdx(key)]
	d, ok := sh.idx.(index.Deleter)
	if !ok {
		return false
	}
	sh.lockWrite()
	defer sh.unlockWrite()
	return d.Delete(key)
}

// BulkLoad splits the sorted keys at the shard boundaries and bulk-loads
// the shards concurrently — each shard owns a disjoint key range, so the
// loads are independent.
func (s *Index) BulkLoad(keys, values []uint64) error {
	// Shard split points in the sorted key array (cheap binary searches,
	// done up front so the loads can fan out).
	cuts := make([]int, len(s.shards)+1)
	cuts[len(s.shards)] = len(keys)
	for i := range s.boundaries {
		cuts[i+1] = cuts[i] + sort.Search(len(keys)-cuts[i], func(j int) bool {
			return keys[cuts[i]+j] >= s.boundaries[i]
		})
	}
	return parallel.ForErr(parallel.Workers(len(s.shards)), len(s.shards), func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := s.loadShard(i, keys[cuts[i]:cuts[i+1]], values, cuts[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// loadShard fills shard i with its key slice (offset is the slice's
// position in the full value array).
func (s *Index) loadShard(i int, keys, values []uint64, offset int) error {
	sh := s.shards[i]
	sh.lockWrite()
	defer sh.unlockWrite()
	var vals []uint64
	if values != nil {
		vals = values[offset : offset+len(keys)]
	}
	return sh.idx.BulkLoad(keys, vals)
}

// cursor streams the sharded index in boundary order. Shards own
// disjoint ascending key ranges, so the k-way merge of per-shard
// cursors degenerates to concatenation: drain shard i, step to i+1.
// Each Next pulls one batch from the current shard under the read
// protocol — the inner cursor is opened at the resume key, drained
// into the destination, and closed before the registration ends, so
// it never aliases shard state across a writer's mutation window.
type cursor struct {
	s    *Index
	si   int
	key  uint64
	done bool
}

var cursorPool = sync.Pool{New: func() any { return new(cursor) }}

// Range implements index.Ranger. The scan is not atomic with respect
// to concurrent writers across shards. When the inner index type cannot
// scan (Caps masks Range) the cursor is empty — callers such as
// viper.Store.Range consult Caps first and surface an error.
func (s *Index) Range(start uint64) index.Cursor {
	if !s.scannable {
		return index.NewSliceCursor(nil, nil, 0)
	}
	c := cursorPool.Get().(*cursor)
	c.s = s
	c.si = sort.Search(len(s.boundaries), func(i int) bool { return s.boundaries[i] > start })
	c.key = start
	c.done = false
	return c
}

// Next fills the destination slices with the next entries in global
// key order. Not hotpath-marked: the per-shard pull goes through the
// index.Cursor interface, which the call-graph analyzer cannot
// resolve; the walk itself allocates nothing.
func (c *cursor) Next(keys, vals []uint64) int {
	n := 0
	for n < len(keys) && !c.done {
		if c.si >= len(c.s.shards) {
			c.done = true
			break
		}
		got := c.fillFromShard(c.s.shards[c.si], uint64(c.si), keys[n:], vals[n:])
		if got > 0 {
			last := keys[n+got-1]
			n += got
			if last == ^uint64(0) {
				c.done = true
				break
			}
			c.key = last + 1
		}
		if n < len(keys) {
			c.si++ // shard exhausted above the resume key
		}
	}
	return n
}

// fillFromShard pulls up to len(keys) entries >= c.key from sh under
// the optimistic read protocol (mutex fallback after retries) through
// the inner index's own cursor.
func (c *cursor) fillFromShard(sh *shard, stripe uint64, keys, vals []uint64) int {
	pull := func() int {
		cur := sh.idx.(index.Ranger).Range(c.key)
		n := cur.Next(keys, vals)
		cur.Close()
		return n
	}
	epoch.ReadAttempt(stripe)
	for try := 0; try < optimisticRetries; try++ {
		if sh.beginRead() {
			n := pull()
			sh.endRead()
			return n
		}
		epoch.ReadRetry(stripe)
		runtime.Gosched()
	}
	epoch.ReadFallback(stripe)
	sh.mu.Lock()
	n := pull()
	sh.mu.Unlock()
	return n
}

func (c *cursor) Close() {
	c.s = nil
	cursorPool.Put(c)
}

// Sizes sums the shard footprints. Like AvgDepth it reads under the
// shard mutex.
func (s *Index) Sizes() index.Sizes {
	var total index.Sizes
	for _, sh := range s.shards {
		sh.mu.Lock()
		sz := sh.idx.Sizes()
		sh.mu.Unlock()
		total.Structure += sz.Structure
		total.Keys += sz.Keys
		total.Values += sz.Values
	}
	total.Structure += int64(len(s.boundaries)) * 8
	return total
}

// ConcurrentWrites reports that concurrent Inserts are safe.
func (s *Index) ConcurrentWrites() bool { return true }
