// Package viper implements a Viper-style NVM-oriented persistent
// key-value store (Benson et al., VLDB'21), the paper's fair end-to-end
// comparison environment: a volatile index kept entirely in DRAM maps
// keys to record offsets, while full records (8-byte key, ~200-byte
// value) live in fixed-size pages on (simulated) persistent memory.
//
// The index is pluggable through the index.Index interface — exactly the
// seam the paper added to Viper to host its six learned and six
// traditional indexes. Recovery rebuilds the DRAM index by scanning the
// PMem pages and bulk-loading the index (Fig 16).
package viper

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"learnedpieces/internal/epoch"
	"learnedpieces/internal/index"
	"learnedpieces/internal/parallel"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/radix"
	"learnedpieces/internal/retrain"
	"learnedpieces/internal/telemetry"
)

const (
	// PageSize is the unit of PMem allocation.
	PageSize = 1 << 20
	// recordHeader is key(8) + valueLen(4) + flags(1).
	recordHeader = 13
	// flagDeleted marks a tombstone record.
	flagDeleted = 1
)

// DefaultValueSize matches the paper's 200-byte values.
const DefaultValueSize = 200

// page is one PMem page with an atomically bumped write position, so
// concurrent writers claim disjoint record slots without a lock (as
// Viper's per-client VPage buffers do).
type page struct {
	off int64
	pos atomic.Int64
}

// storeView is the immutable read-side snapshot of the store: the
// index handle plus its capability surface, resolved once per install
// instead of once per operation. Mutation paths (Open, Recover,
// Compact, DropIndex) build a fresh view copy-on-write and publish it
// with one atomic store; the displaced view is retired through the
// epoch manager. Readers load the view exactly once per operation, so
// every probe inside one Get/MultiGet/Range sees one consistent
// (index, caps, seams) triple even across a concurrent install.
type storeView struct {
	idx  index.Index
	caps index.Caps
	seam index.Seam
}

// Store is the KV store. Get/MultiGet/Range are lock-free: they pin an
// epoch, load the atomically published storeView, and never touch a
// mutex. Put appends without a lock except at page rollover. Put is
// safe for concurrent use exactly when the volatile index supports
// concurrent writes (XIndex, FINEdex, CCEH) — the store
// adds no serialisation of its own.
type Store struct {
	region *pmem.Region
	view   epoch.Versioned[storeView]

	// Options.
	valueSize   int
	sink        *telemetry.Sink
	met         *telemetry.StoreMetrics // nil = telemetry disabled
	pool        *retrain.Pool           // nil unless WithRetrainMode attached one
	retrainMode RetrainMode

	// scanBatch is the number of index entries a range scan pulls per
	// cursor round; 0 means DefaultScanBatch. Only the scan tests set it.
	scanBatch int

	cur     atomic.Pointer[page]
	mu      sync.Mutex // page rollover, deletes, recovery
	pages   []int64    // all page offsets, in allocation order
	liveLen atomic.Int64
	closed  atomic.Bool
}

// Option configures a Store at Open time.
type Option func(*Store)

// WithTelemetry attaches the store, its PMem region and its index to
// sink: operation latencies and structural events flow into the sink's
// shared counters, and the sink's live index probe follows this store's
// current index. A nil sink leaves telemetry disabled (the default).
func WithTelemetry(sink *telemetry.Sink) Option {
	return func(s *Store) { s.sink = sink }
}

// WithValueSize declares the nominal record payload in bytes (the paper
// uses 200). It sizes the shared payload BulkPut synthesises when called
// with a nil value and is the length of the one device access a point
// read issues per record (readRecord):
// explicit values of any length remain accepted, but a longer one costs
// a second access and a much shorter one over-reads — by at most one
// 256-byte block at the default size. n <= 0 keeps DefaultValueSize.
func WithValueSize(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.valueSize = n
		}
	}
}

// RetrainMode selects where index retrains (segment merges, node
// expands, buffer flushes, full rebuilds) run relative to Put.
type RetrainMode int

const (
	// RetrainInline attaches no pool: every retrain runs on the inserting
	// goroutine, through the same code the pool would run it with, and
	// its stall shows in the index's RetrainStats. This is the default.
	RetrainInline RetrainMode = iota
	// RetrainAsync attaches a worker pool: retrains run in the
	// background and are installed copy-on-write, off the Put tail.
	RetrainAsync
)

// ParseRetrainMode maps the CLI spelling of a retrain mode
// (inline or async) to its value.
func ParseRetrainMode(s string) (RetrainMode, bool) {
	switch s {
	case "inline":
		return RetrainInline, true
	case "async":
		return RetrainAsync, true
	}
	return RetrainInline, false
}

// WithRetrainMode selects the retraining mode. It only has an effect
// when the index implements index.AsyncRetrainer (the capability is
// re-resolved on every index swap, so Recover and Compact keep the
// chosen mode).
func WithRetrainMode(m RetrainMode) Option {
	return func(s *Store) { s.retrainMode = m }
}

// Typed error sentinels. Every error a Store operation returns wraps
// exactly one of these, so callers — the network server above all — can
// classify failures with errors.Is and map them to wire status codes
// without ever matching message strings.
var (
	// ErrFull means the PMem region cannot fit another page; the store
	// needs a Compact (or a bigger region) before further writes.
	ErrFull = errors.New("viper: store full")
	// ErrClosed fences every operation after Close.
	ErrClosed = errors.New("viper: store is closed")
	// ErrUnsupported means the current index lacks the capability
	// (delete, scan) the operation needs.
	ErrUnsupported = errors.New("viper: operation unsupported by index")
	// ErrValueSize rejects a value the record format cannot carry.
	ErrValueSize = errors.New("viper: invalid value size")
)

// Specific value-size violations; both wrap ErrValueSize.
var (
	ErrEmptyValue  = fmt.Errorf("%w: empty values are not supported", ErrValueSize)
	ErrValueTooBig = fmt.Errorf("%w: value exceeds page size", ErrValueSize)
)

// Open creates a store over the region using idx as the volatile index.
func Open(region *pmem.Region, idx index.Index, opts ...Option) *Store {
	s := &Store{region: region, valueSize: DefaultValueSize}
	s.setIndex(idx)
	for _, o := range opts {
		o(s)
	}
	if s.retrainMode == RetrainAsync {
		// A small fraction of the machine (NewPool starts at least one
		// worker), so background rebuilds never crowd out foreground work.
		s.pool = retrain.NewPool(parallel.Workers(8)/2, 0)
	}
	s.attachPool()
	if s.sink != nil {
		s.met = s.sink.StoreSink()
		s.sink.SetPMemProbe(func() telemetry.PMemSnapshot {
			a := region.AccessStats()
			return telemetry.PMemSnapshot{
				Reads: a.Reads, Writes: a.Writes, Flushes: a.Flushes,
				LineReads: a.LineReads, LineWrites: a.LineWrites,
				ReadStallNs: a.ReadStallNs, WriteStallNs: a.WriteStallNs,
			}
		})
		s.sink.SetProbe(func() telemetry.IndexStats {
			return telemetry.CollectIndexStats(s.view.Load().idx)
		})
		if s.pool != nil {
			pool := s.pool
			s.sink.SetRetrainProbe(func() telemetry.RetrainSnapshot {
				st := pool.Stats()
				return telemetry.RetrainSnapshot{
					Workers: st.Workers, QueueDepth: st.QueueDepth,
					Submitted: st.Submitted, Coalesced: st.Coalesced,
					Executed: st.Executed, Inline: st.Inline,
					BackgroundNs: st.BackgroundNs, ForegroundNs: st.ForegroundNs,
				}
			})
		}
	}
	return s
}

// attachPool hands the store's retrain pool to the current index when
// it supports background retraining. Indexes without the capability
// silently keep their inline behavior.
func (s *Store) attachPool() {
	if v := s.view.Load(); s.pool != nil && v.seam.AsyncRetrain != nil {
		v.seam.AsyncRetrain.SetRetrainPool(s.pool)
	}
}

// DefaultScanBatch is the number of index entries a range scan pulls
// from the cursor per round before touching PMem. 256 entries ≈ 54KB
// of record reads per round at the default value size — enough offset
// locality to fill the simulated device's block buffer, short enough
// that the per-round epoch pin never stalls Compact's reclamation for
// long.
const DefaultScanBatch = 256

// DrainRetrains waits for in-flight background retrains and installs
// their results. On single-writer indexes it must run from the writer
// timeline with writers quiesced (the same stop-the-world contract as
// Compact); with no pool or an inline-only index it is a no-op.
func (s *Store) DrainRetrains() {
	if v := s.view.Load(); v.seam.AsyncRetrain != nil {
		v.seam.AsyncRetrain.DrainRetrains()
	}
}

// Close shuts the store down: it drains in-flight background retrains,
// stops the retrain worker pool, detaches the store's telemetry probes
// (folding their final values into the sink's cumulative totals), and
// fences every further operation — writes return ErrClosed, reads miss.
// Close requires quiesced writers, like Compact: operations still in
// flight when Close begins may complete or observe the fence, but are
// never corrupted. A second Close returns ErrClosed.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return ErrClosed
	}
	// Finish background work before tearing the pool down so no rebuilt
	// structure is dropped half-installed.
	s.DrainRetrains()
	if s.pool != nil {
		s.pool.Close()
	}
	if s.sink != nil {
		// Replacing the probes with nil makes the sink read each one a
		// final time, so a snapshot taken after Close still carries this
		// store's totals — without the sink retaining the dead store.
		s.sink.SetPMemProbe(nil)
		s.sink.SetProbe(nil)
		s.sink.SetRetrainProbe(nil)
	}
	return nil
}

// Closed reports whether Close has been called.
func (s *Store) Closed() bool { return s.closed.Load() }

// setIndex builds a fresh immutable view around idx and publishes it.
// Callers on mutation paths hold s.mu (which serializes installs); the
// lock-free readers keep traversing the displaced view until their pin
// ends — the epoch manager retires it, so the swap never blocks them.
func (s *Store) setIndex(idx index.Index) {
	s.view.Publish(&storeView{
		idx:  idx,
		caps: index.CapsOf(idx),
		seam: index.Seams(idx),
	})
	s.attachPool() // Recover/Compact/DropIndex keep the retrain mode
}

// Index exposes the volatile index (for stats such as Sizes).
func (s *Store) Index() index.Index { return s.view.Load().idx }

// Caps reports the capability descriptor of the current index.
func (s *Store) Caps() index.Caps { return s.view.Load().caps }

// Region exposes the PMem region (for stats).
func (s *Store) Region() *pmem.Region { return s.region }

// Metrics returns the store's telemetry, nil when disabled.
func (s *Store) Metrics() *telemetry.StoreMetrics { return s.met }

// Len returns the number of live keys.
func (s *Store) Len() int { return int(s.liveLen.Load()) }

// stripe spreads keys across recorder shards: a Fibonacci hash whose top
// bits (the well-mixed ones) land in the recorder's low mask bits.
//
//pieces:hotpath
func stripe(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> 56
}

// claim reserves n bytes in the current page, rolling over to a fresh
// page when full (the claimed tail of a full page is abandoned; its
// zeroed header terminates the recovery scan of that page).
func (s *Store) claim(n int) (int64, error) {
	if n > PageSize {
		return 0, ErrValueTooBig
	}
	for {
		p := s.cur.Load()
		if p != nil {
			pos := p.pos.Add(int64(n)) - int64(n)
			if pos+int64(n) <= PageSize {
				return p.off + pos, nil
			}
		}
		// Roll over under the lock; only one writer allocates.
		s.mu.Lock()
		if s.cur.Load() == p {
			off, err := s.region.Alloc(PageSize)
			if err != nil {
				s.mu.Unlock()
				return 0, fmt.Errorf("%w: %w", ErrFull, err)
			}
			np := &page{off: off}
			s.pages = append(s.pages, off)
			s.cur.Store(np)
			s.met.PageRollover()
		}
		s.mu.Unlock()
	}
}

// appendRecord writes one record — header and value in a single device
// write, then the record's flush — and returns its offset.
func (s *Store) appendRecord(key uint64, value []byte, flags byte) (int64, error) {
	n := recordHeader + len(value)
	off, err := s.claim(n)
	if err != nil {
		return 0, err
	}
	var hdr [recordHeader]byte
	binary.LittleEndian.PutUint64(hdr[0:8], key)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(value)))
	hdr[12] = flags
	s.region.WriteGather(off, hdr[:], value)
	s.region.Flush(off, n)
	return off, nil
}

// readRecord is the one point read of a record, shared by Get, MultiGet,
// scattered Range entries and Compact's copy: a single device access of
// recordHeader+ValueSize bytes at off (clamped to the region end, as
// readSpans clamps its spans), with flags and length parsed out of
// that view. rd is nil for a lone read, which has paid its stall before
// it parses; a batch passes its read round, which pays at the batch's end
// (readSpans). Reading the header and then the value would pay the
// header's block twice whenever the value straddles a block boundary
// (pmem.Region.charge bills every block of a multi-block access). Only a
// value longer than the declared ValueSize costs a second access. The
// view may extend past the record into a neighbour's bytes; they are
// never dereferenced. live is false for a tombstone. Caller holds an
// epoch pin.
//
//pieces:hotpath
func (s *Store) readRecord(rd *pmem.Round, off int64) (val []byte, live bool) {
	n := recordHeader + s.valueSize
	if rest := s.region.Size() - int(off); n > rest {
		n = rest
	}
	rec := rd.ReadNoCopy(s.region, off, n)
	if rec[12]&flagDeleted != 0 {
		return nil, false
	}
	end := recordHeader + int(binary.LittleEndian.Uint32(rec[8:12]))
	if end > len(rec) {
		return rd.ReadNoCopy(s.region, off+recordHeader, end-recordHeader), true
	}
	return rec[recordHeader:end], true
}

// Put stores value under key (insert or update). Concurrent Puts are
// safe iff the index supports concurrent writes.
//
// A Put is one record append and one index descent: InsertReplace
// installs the new offset and reports, from that same descent, whether
// the key already existed, which is all the live-key counter needs. No
// existence probe precedes it, so the count is exact under concurrent
// writers too.
func (s *Store) Put(key uint64, value []byte) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if len(value) == 0 {
		return ErrEmptyValue
	}
	sp := s.met.StartPut(stripe(key))
	off, err := s.appendRecord(key, value, 0)
	if err != nil {
		sp.Done()
		return err
	}
	v := s.view.Load()
	existed, err := v.idx.InsertReplace(key, uint64(off))
	if err != nil {
		sp.Done()
		return fmt.Errorf("viper: index insert: %w", err)
	}
	if !existed {
		s.liveLen.Add(1)
		s.met.LiveDelta(1)
	}
	sp.Done()
	return nil
}

// Get reads the value stored under key. The returned slice aliases the
// region and must not be modified. Get is lock-free: it pins an epoch,
// loads the current view, and resolves the record with no mutex on any
// path. The pin keeps the view's index and the record's page alive
// across the probe — a concurrent Compact defers its page frees until
// the pin ends — but the returned slice is valid only while the Store
// is reachable and not compacted. The region is a mapping outside the Go
// heap (except in race builds and off Linux), so a kept slice does not
// keep the Store alive: once the Store is collected, its region's
// finalizer releases the pages, and the slice reads zeros, or another
// store's bytes once the mapping is reused. A caller that keeps a value
// longer copies it.
//
//pieces:hotpath
func (s *Store) Get(key uint64) ([]byte, bool) {
	if s.closed.Load() {
		return nil, false
	}
	st := stripe(key)
	sp := s.met.StartGet(st)
	g := epoch.Enter(st)
	v := s.view.Load()
	off, ok := v.idx.Get(key)
	if !ok {
		g.Exit()
		s.met.GetMiss()
		sp.Done()
		return nil, false
	}
	val, live := s.readRecord(nil, int64(off))
	g.Exit()
	if !live {
		s.met.GetMiss()
	}
	sp.Done()
	return val, live
}

// MultiGet looks up a batch of keys with one epoch pin and one read
// round, and overlaps the batch's index descents with its own record
// reads. The batch's positions are put in key order, so equal keys sit
// together, and resolved in groups of ⌈√n⌉ keys for a batch of n, a
// group stretched so that it never splits a run of equal keys. A group
// goes through the BatchGetter seam (lockstep descents whose cache
// misses overlap), or through Get when the index lacks the seam or the
// group is one key. Its hits are sorted by record offset and read by
// readSpans into the batch's round without waiting, so the next group
// descends while those reads are in flight: charge has already
// prefetched each record and added its stall to the round. Before a
// group's reads the round is resumed, so when the descents outlasted the
// stall still outstanding the reads are paid from the present: no read
// is served before it is asked. The round waits once, at the end, before
// any value reaches the caller. Within a group, duplicate keys (equal
// offsets) and log neighbours coalesce into one span read; neighbours
// that land in different groups are read separately.
//
// The group size needs no constant. A descent plus a record's parse
// costs the host about what a record's stall costs the device, so the
// stall left after the last descent is the last group's, which grows
// with the group size, while each group adds a sort, a resume and an
// exposed host miss, together about one record's stall, whose count
// falls as the size grows: √n balances the two. out[i] is nil when
// keys[i] is absent or deleted; returned slices alias the region, must
// not be modified and are valid only as long as Get's. MultiGet is as
// safe for concurrent use as Get.
func (s *Store) MultiGet(keys []uint64) [][]byte {
	if s.closed.Load() {
		return make([][]byte, len(keys))
	}
	if len(keys) > maxScanBatch {
		// Batch positions must fit sortByOffset's packed sort words.
		out := make([][]byte, 0, len(keys))
		for len(keys) > 0 {
			n := min(len(keys), maxScanBatch)
			out = append(out, s.MultiGet(keys[:n])...)
			keys = keys[n:]
		}
		return out
	}
	sp := s.met.StartMultiGet(len(keys))
	defer sp.Done()
	g := epoch.Enter(uint64(len(keys)))
	defer g.Exit()
	v := s.view.Load()
	n := len(keys)
	out := make([][]byte, n)
	sc := mgPool.Get().(*mgScratch)
	sc.grow(n)
	// byKey[j] is the position of the j-th smallest key, sorted[j] that
	// key and sOffs/sFound its lookup; offs is indexed by position.
	byKey, sorted := sc.byKey[:n], sc.sorted[:n]
	sOffs, sFound, offs := sc.sOffs[:n], sc.sFound[:n], sc.offs[:n]
	sortByKey(keys, byKey)
	for j, i := range byKey {
		sorted[j] = keys[i]
	}
	size := int(math.Ceil(math.Sqrt(float64(n))))
	var rd pmem.Round
	for lo := 0; lo < n; {
		hi := min(lo+size, n)
		for hi < n && sorted[hi] == sorted[hi-1] {
			hi++
		}
		if v.seam.Batch != nil && hi-lo > 1 {
			v.seam.Batch.GetBatch(sorted[lo:hi], sOffs[lo:hi], sFound[lo:hi])
		} else {
			for j := lo; j < hi; j++ {
				sOffs[j], sFound[j] = v.idx.Get(sorted[j])
			}
		}
		hits := sc.hits[:0]
		for j := lo; j < hi; j++ {
			if sFound[j] {
				i := byKey[j]
				offs[i] = sOffs[j]
				hits = append(hits, i)
			}
		}
		sortByOffset(offs, hits, sc.pack)
		rd.Resume()
		s.readSpans(&rd, offs, hits, out)
		lo = hi
	}
	rd.Wait()
	mgPool.Put(sc)
	return out
}

// sortByKey fills ord with the positions of keys in ascending key order.
// The sort is stable, so the positions of equal keys are looked up in
// the caller's order: a reader that sees a key twice in one batch never
// gets the later position's value older than the earlier one's.
func sortByKey(keys []uint64, ord []int) {
	for i := range ord {
		ord[i] = i
	}
	slices.SortStableFunc(ord, func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })
}

// mgScratch holds MultiGet's per-call working state, every slice as long
// as the largest batch seen. Pooling it keeps the batched read path
// allocation-free apart from the returned slice.
type mgScratch struct {
	sorted, sOffs, offs, pack []uint64 // keys in key order, their lookups; offset per position; sort words
	sFound                    []bool
	byKey, hits               []int
}

func (sc *mgScratch) grow(n int) {
	if cap(sc.offs) >= n {
		return
	}
	sc.sorted, sc.sOffs, sc.offs, sc.pack = make([]uint64, n), make([]uint64, n), make([]uint64, n), make([]uint64, n)
	sc.sFound, sc.byKey, sc.hits = make([]bool, n), make([]int, n), make([]int, n)
}

var mgPool = sync.Pool{New: func() interface{} { return new(mgScratch) }}

// Delete removes key: a tombstone record is appended for recovery and
// the key is dropped from the volatile index. Like Put, concurrent use
// requires an index with concurrent write support. The capability check
// runs before anything is written, so an index without delete support
// leaves no stray tombstone in the log.
func (s *Store) Delete(key uint64) (bool, error) {
	if s.closed.Load() {
		return false, ErrClosed
	}
	v := s.view.Load()
	if v.seam.Delete == nil {
		return false, fmt.Errorf("%w: index %s cannot delete", ErrUnsupported, v.idx.Name())
	}
	sp := s.met.StartDelete(stripe(key))
	defer sp.Done()
	if _, ok := v.idx.Get(key); !ok {
		return false, nil
	}
	if _, err := s.appendRecord(key, nil, flagDeleted); err != nil {
		return false, err
	}
	s.met.Tombstone()
	if !v.seam.Delete.Delete(key) {
		// A concurrent deleter won the race after our Get; the extra
		// tombstone is harmless and the loser reports "not present".
		return false, nil
	}
	s.liveLen.Add(-1)
	s.met.LiveDelta(-1)
	return true, nil
}

// scanScratch holds the batched scan's per-round working state; the
// pool keeps steady-state rounds allocation-free.
type scanScratch struct {
	keys  []uint64
	offs  []uint64
	vals  [][]byte
	order []int
	pack  []uint64
}

var scanPool = sync.Pool{New: func() interface{} { return new(scanScratch) }}

// maxScanBatch bounds a scan round so batch positions fit the packed
// offset|position sort words (offset<<20 | position).
const maxScanBatch = 1 << 20

// spanBridge is the largest hole (in bytes) between two consecutive
// offset-sorted records that a coalesced span read will cover rather
// than splitting the span. On a block-granular device a cold record
// access pays ~2 fresh 256-byte blocks (a 213-byte record straddles a
// boundary five times in six), so bridging up to two blocks of stale
// bytes is never dearer than breaking the sequential walk.
const spanBridge = 512

// touchAhead caps how many of a read group's records readSpans prefetches
// before it reads any: 256 header lines are 16 KB, inside any L1, where
// the lines of a maxScanBatch round would evict one another unread.
const touchAhead = 256

// sortByOffset orders the batch positions in ord by ascending offs:
// insertion sort for small rounds, otherwise a packed-primitive sort
// (offset<<20 | position) so pdqsort runs on a []uint64 without a
// closure comparator in the comparison loop.
func sortByOffset(offs []uint64, ord []int, pack []uint64) {
	m := len(ord)
	if m <= 32 {
		for i := 1; i < m; i++ {
			x := ord[i]
			j := i - 1
			for j >= 0 && offs[ord[j]] > offs[x] {
				ord[j+1] = ord[j]
				j--
			}
			ord[j+1] = x
		}
		return
	}
	for i, p := range ord {
		pack[i] = offs[p]<<20 | uint64(p)
	}
	slices.Sort(pack[:m])
	for i, p := range pack[:m] {
		ord[i] = int(p & (maxScanBatch - 1))
	}
}

// readSpans resolves the batch's records in ascending offset order
// (ord holds batch positions sorted by offs) and writes each value —
// nil for tombstones — back to its batch position in vals. Consecutive
// offsets within spanBridge of one record's extent coalesce into a
// single span read, so an offset-ordered round over a dense log region
// costs one near-sequential device walk instead of one access per
// record; stale records inside a span are never parsed, just skipped by
// offset arithmetic. A record with no neighbour in reach goes through
// readRecord. Before any of that the header line of each record (up to
// touchAhead of them) is prefetched, so the batch's cache and TLB misses
// overlap instead of each waiting behind the previous record's stall.
// Every span and straggler read is one access of rd: each is charged as
// if made alone and its stall added to the round's, so the values in
// vals must not reach the caller before rd.Wait. Caller holds an epoch
// pin.
//
//pieces:hotpath
func (s *Store) readSpans(rd *pmem.Round, offs []uint64, ord []int, vals [][]byte) {
	for _, i := range ord[:min(len(ord), touchAhead)] {
		s.region.Prefetch(int64(offs[i]))
	}
	maxGap := uint64(recordHeader + s.valueSize + spanBridge)
	size := uint64(s.region.Size())
	m := len(ord)
	for j := 0; j < m; {
		runEnd := j + 1
		for runEnd < m && offs[ord[runEnd]]-offs[ord[runEnd-1]] <= maxGap {
			runEnd++
		}
		if runEnd-j < 2 {
			vals[ord[j]], _ = s.readRecord(rd, int64(offs[ord[j]]))
			j++
			continue
		}
		first := offs[ord[j]]
		spanLen := offs[ord[runEnd-1]] - first + uint64(recordHeader+s.valueSize)
		if first+spanLen > size {
			spanLen = size - first
		}
		span := rd.ReadNoCopy(s.region, int64(first), int(spanLen))
		for ; j < runEnd; j++ {
			i := ord[j]
			rel := offs[i] - first
			if hdrEnd := rel + recordHeader; hdrEnd <= uint64(len(span)) {
				if span[rel+12]&flagDeleted != 0 {
					vals[i] = nil
					continue
				}
				vlen := uint64(binary.LittleEndian.Uint32(span[rel+8 : rel+12]))
				if end := hdrEnd + vlen; end <= uint64(len(span)) {
					vals[i] = span[hdrEnd:end]
					continue
				}
			}
			// An oversized value or a span clamped at the region end:
			// the straggler reads individually, over already-warm blocks.
			vals[i], _ = s.readRecord(rd, int64(offs[i]))
		}
	}
}

// Range visits live entries with key >= start in ascending key order,
// reading each value from PMem. n > 0 caps the number of entries
// *delivered*: tombstoned records — deleted keys whose index entry
// still lingers in a delta layer — never consume the caller's limit,
// only the store can tell them apart. The index must expose a streaming
// cursor (Caps.Range); otherwise Range returns ErrUnsupported. A value
// passed to fn aliases the region, must not be modified and is valid
// only as long as Get's.
//
// Range is the one scan engine. Each round pulls a batch of index
// entries from the cursor, reads their records in ascending PMem offset
// order (the MultiGet aggregation trick — near-sequential record reads
// maximise the simulated device's block-buffer hit rate), then re-emits
// them in key order. Each round runs under its own epoch pin, released
// between rounds so a long scan never stalls Compact's deferred page
// reclamation; if an index install races the scan across a yield, the
// cursor is reopened from the new view at the next key (counted as a
// reseek).
//
// A round is read in two groups, its head and its rest, inside its one
// epoch pin and one pmem.Round: the head's entries are pulled, sorted by
// offset and their reads issued without waiting, then the rest is pulled,
// sorted and read after a Resume, and the round waits once before it
// emits (rangeHead has the split and its cost).
func (s *Store) Range(start uint64, n int, fn func(key uint64, value []byte) bool) error {
	if s.closed.Load() {
		return ErrClosed
	}
	sp := s.met.StartScan(stripe(start))
	defer sp.Done()

	batch := DefaultScanBatch
	if s.scanBatch > 0 {
		batch = s.scanBatch
	}
	sc := scanPool.Get().(*scanScratch)
	if cap(sc.keys) < batch {
		sc.keys = make([]uint64, batch)
		sc.offs = make([]uint64, batch)
		sc.vals = make([][]byte, batch)
		sc.order = make([]int, batch)
		sc.pack = make([]uint64, batch)
	}
	keys, offs, vals := sc.keys[:batch], sc.offs[:batch], sc.vals[:batch]
	defer func() {
		for i := range sc.vals {
			sc.vals[i] = nil // drop region aliases before pooling
		}
		scanPool.Put(sc)
	}()

	var v *storeView
	var cur index.Cursor
	from := start
	count := 0
	for {
		g := epoch.Enter(stripe(from))
		if v2 := s.view.Load(); cur == nil || v2 != v {
			if cur != nil {
				// An install (Compact, Recover, DropIndex) displaced the
				// view while the pin was down: the cursor walks retired
				// structures and its remaining offsets may be remapped.
				// Reopen at the next key against the new view.
				cur.Close()
				s.met.ScanReseek()
			}
			v = v2
			if v.seam.Range == nil || !v.caps.Range {
				g.Exit()
				return fmt.Errorf("%w: index %s cannot scan", ErrUnsupported, v.idx.Name())
			}
			cur = v.seam.Range.Range(from)
		}
		// Clamp the pull to the caller's remaining limit: a scan of 10
		// must not read a full batch of records from PMem. Tombstones in
		// the pull don't count as delivered, so a later round tops up.
		pull := batch
		if n > 0 {
			pull = min(pull, n-count)
		}
		// The head's reads are issued before the rest is pulled, so the
		// rest's cursor walk, sort and touch-ahead run inside the head's
		// stall; the round waits once, for both groups.
		head := rangeHead(pull)
		var rd pmem.Round
		m := cur.Next(keys[:head], offs[:head])
		presorted := s.readGroup(&rd, sc, 0, m)
		if m == head && head < pull {
			m += cur.Next(keys[head:pull], offs[head:pull])
			rd.Resume()
			presorted = s.readGroup(&rd, sc, head, m) && presorted && (m == head || offs[head-1] <= offs[head])
		}
		more := m == pull // a short pull exhausted the range
		if m > 0 {
			s.met.ScanBatchPulled(m, presorted)
			rd.Wait()
			// Re-emit in key order; tombstones never consume the limit.
			for i := 0; i < m; i++ {
				if vals[i] == nil {
					continue
				}
				count++
				if !fn(keys[i], vals[i]) || (n > 0 && count >= n) {
					more = false
					break
				}
			}
			// A round that delivered 2^64-1 has nowhere left to resume from.
			from = keys[m-1] + 1
			more = more && from != 0
		}
		// The pin-yield between rounds is the iteration boundary itself.
		g.Exit()
		if !more {
			cur.Close()
			return nil
		}
		s.met.ScanPinYield()
	}
}

// rangeHead is the number of entries a Range round of pull reads before
// it pulls the rest: ⌈√pull⌉, or the whole round when the rest would be
// no longer than the head. A split costs at most one device block, when
// a span that would have coalesced across the boundary is read as two,
// and hides the rest's host work (cursor walk, sort, touch-ahead) inside
// the head's stall. The smallest rest that splits is four entries, whose
// host work about matches one block's stall; past it the rest grows as
// pull−√pull while the cost stays one block.
func rangeHead(pull int) int {
	h := int(math.Ceil(math.Sqrt(float64(pull))))
	if pull-h <= h {
		return pull
	}
	return h
}

// readGroup issues the reads of positions [lo, hi) of a Range round into
// rd in ascending offset order, leaving their values in sc.vals; it
// skips the sort when the cursor delivered them in offset order already
// (a freshly bulk-loaded store's appends followed key order) and reports
// whether it did, which telemetry's presorted ratio counts per round.
// Caller holds an epoch pin.
//
//pieces:hotpath
func (s *Store) readGroup(rd *pmem.Round, sc *scanScratch, lo, hi int) (presorted bool) {
	ord := sc.order[lo:hi]
	presorted = true
	for i := range ord {
		ord[i] = lo + i
		if i > 0 && sc.offs[lo+i] < sc.offs[lo+i-1] {
			presorted = false
		}
	}
	if !presorted {
		sortByOffset(sc.offs[:hi], ord, sc.pack)
	}
	s.readSpans(rd, sc.offs, ord, sc.vals)
	return presorted
}

// bulkMinPerWorker is the smallest record batch worth a goroutine in
// Compact's copy phase.
const bulkMinPerWorker = 4096

// BulkPut loads sorted distinct keys with a shared value payload through
// the index's bulk path — the store initialisation the paper uses before
// its read-only experiments. A nil value synthesises a zeroed payload of
// the configured ValueSize.
//
// The records are fixed-size, so the layout is settled before anything is
// written: page p of the load holds keys[p·perPage : (p+1)·perPage]. The
// pages are allocated up front and join the log behind whatever it holds
// (a previous current page is sealed where it stands; its zeroed tail ends
// its scan), and the last becomes the current page, positioned behind the
// last loaded record, where the next Put lands. Workers then fill whole
// pages, a pageWriter each: which worker fills which page changes no byte.
// The index bulk-load runs once over the full sorted array.
func (s *Store) BulkPut(keys []uint64, value []byte) error {
	if value == nil {
		value = make([]byte, s.valueSize)
	}
	if len(value) == 0 {
		return ErrEmptyValue
	}
	recLen := recordHeader + len(value)
	if recLen > PageSize {
		return ErrValueTooBig
	}
	if s.closed.Load() {
		return ErrClosed
	}
	t0 := time.Now()
	perPage := PageSize / recLen
	nPages := (len(keys) + perPage - 1) / perPage
	pages := make([]int64, nPages)
	s.mu.Lock()
	for i := range pages {
		var err error
		if pages[i], err = s.allocPage(); err != nil {
			s.mu.Unlock()
			freePages(s.region, pages[:i])
			return err
		}
	}
	if nPages > 0 {
		s.pages = append(s.pages, pages...)
		last := &page{off: pages[nPages-1]}
		last.pos.Store(int64((len(keys) - (nPages-1)*perPage) * recLen))
		s.cur.Store(last)
	}
	s.mu.Unlock()
	offs := make([]uint64, len(keys))
	parallel.For(parallel.Workers(nPages), nPages, func(_, lo, hi int) {
		p := lo
		w := s.newPageWriter(func() (int64, error) { p++; return pages[p-1], nil })
		for i := lo * perPage; i < min(hi*perPage, len(keys)); i++ {
			offs[i], _ = w.append(keys[i], value) // cannot fail: the record fits a page and next has one
		}
		w.commit()
	})
	if err := s.view.Load().idx.BulkLoad(keys, offs); err != nil {
		return err
	}
	prev := s.liveLen.Swap(int64(len(keys)))
	s.met.LiveDelta(int64(len(keys)) - prev)
	s.met.ObserveBulkLoad(time.Since(t0))
	return nil
}

// scanRun is what a page scan saw, one entry per record: its key and its
// seq. seq places the record in the log: the index of its page in the
// scanned list, below that its position inside the page and, in the
// lowest bit, its flagDeleted. The newest version of a key is its entry
// with the largest seq.
type scanRun struct{ keys, seqs []uint64 }

func (r *scanRun) push(key, seq uint64) {
	r.keys = append(r.keys, key)
	r.seqs = append(r.seqs, seq)
}

// seqPosBits is the width of seq's position and flag: PageSize is 1<<20.
const seqPosBits = 21

// scanLive replays the given pages and returns the surviving keys
// (tombstones dropped) in sorted order with the offsets of their newest
// records: for each key the record that appears last in (position of its
// page in pages, offset within the page), the order a serial replay of the
// log applies.
//
// Pages fan out across workers in contiguous chunks of that order. Each
// page is one sequential device read parsed in memory, not one access per
// record header; its walk ends at the zeroed header that follows its last
// record, or at a length that would run past the page (which no written
// record has, so it is not trusted to be one). A chunk whose keys came out
// strictly increasing — every never-updated bulk load — is done; any other
// is radix-sorted by key, which keeps a key's entries in log order, and
// the last entry of each equal-key run kept. The chunks, now sorted with
// distinct keys, merge pairwise in chunk order, the later chunk (its seqs
// are larger) winning.
func (s *Store) scanLive(pages []int64) (keys, offs []uint64) {
	workers := parallel.Workers(len(pages))
	runs := make([]scanRun, workers)
	parallel.For(workers, len(pages), func(w, lo, hi int) {
		n := (hi - lo) * (PageSize/(recordHeader+s.valueSize) + 1)
		run := scanRun{make([]uint64, 0, n), make([]uint64, 0, n)}
		sorted := true
		for p := lo; p < hi; p++ {
			buf := s.region.ReadNoCopy(pages[p], PageSize)
			for pos := 0; pos+recordHeader <= PageSize; {
				key := binary.LittleEndian.Uint64(buf[pos : pos+8])
				vlen := binary.LittleEndian.Uint32(buf[pos+8 : pos+12])
				flags := buf[pos+12]
				if key == 0 && vlen == 0 && flags == 0 {
					break // end of page
				}
				end := pos + recordHeader + int(vlen)
				if end > PageSize {
					break
				}
				sorted = sorted && (len(run.keys) == 0 || run.keys[len(run.keys)-1] < key)
				run.push(key, uint64(p)<<seqPosBits|uint64(pos)<<1|uint64(flags&flagDeleted))
				pos = end
			}
		}
		if !sorted {
			radix.Sort(run.keys, run.seqs)
			run = run.newest()
		}
		runs[w] = run
	})
	for len(runs) > 1 {
		for i := 0; i+1 < len(runs); i += 2 {
			runs[i/2] = mergeNewest(runs[i], runs[i+1])
		}
		if odd := len(runs) - 1; odd%2 == 0 {
			runs[odd/2] = runs[odd]
		}
		runs = runs[:(len(runs)+1)/2]
	}
	keys = make([]uint64, 0, len(runs[0].keys))
	offs = make([]uint64, 0, len(runs[0].keys))
	for i, seq := range runs[0].seqs {
		if seq&flagDeleted == 0 {
			keys = append(keys, runs[0].keys[i])
			offs = append(offs, uint64(pages[seq>>seqPosBits])+(seq&(1<<seqPosBits-1))>>1)
		}
	}
	return keys, offs
}

// newest keeps, in place, the last entry of each equal-key run of a
// key-sorted run whose equal keys are in log order: a key's newest.
func (r scanRun) newest() scanRun {
	n := 0
	for i, k := range r.keys {
		if i+1 < len(r.keys) && r.keys[i+1] == k {
			continue
		}
		r.keys[n], r.seqs[n] = k, r.seqs[i]
		n++
	}
	return scanRun{r.keys[:n], r.seqs[:n]}
}

// mergeNewest merges two key-sorted runs of distinct keys; a key both hold
// keeps newer's entry.
func mergeNewest(older, newer scanRun) scanRun {
	if len(older.keys) == 0 || len(newer.keys) == 0 || older.keys[len(older.keys)-1] < newer.keys[0] {
		return scanRun{append(older.keys, newer.keys...), append(older.seqs, newer.seqs...)}
	}
	n := len(older.keys) + len(newer.keys)
	out := scanRun{make([]uint64, 0, n), make([]uint64, 0, n)}
	i, j := 0, 0
	for i < len(older.keys) && j < len(newer.keys) {
		switch a, b := older.keys[i], newer.keys[j]; {
		case a < b:
			out.push(a, older.seqs[i])
			i++
		case a > b:
			out.push(b, newer.seqs[j])
			j++
		default:
			out.push(b, newer.seqs[j])
			i, j = i+1, j+1
		}
	}
	out.keys = append(append(out.keys, older.keys[i:]...), newer.keys[j:]...)
	out.seqs = append(append(out.seqs, older.seqs[i:]...), newer.seqs[j:]...)
	return out
}

// Recover rebuilds the volatile index from the PMem pages after a
// (simulated) crash: it scans every record, keeps the newest version per
// key, drops tombstones, and bulk-loads the index. The page scan runs
// page-parallel (see scanLive) and the index's own bulk-load path may
// fan out further. The caller provides a fresh index instance.
func (s *Store) Recover(fresh index.Index) error {
	if s.closed.Load() {
		return ErrClosed
	}
	t0 := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	keys, offs := s.scanLive(s.pages)
	if err := fresh.BulkLoad(keys, offs); err != nil {
		return err
	}
	s.setIndex(fresh)
	prev := s.liveLen.Swap(int64(len(keys)))
	s.met.LiveDelta(int64(len(keys)) - prev)
	s.met.ObserveRecovery(time.Since(t0))
	return nil
}

// Compact rewrites every live record into fresh pages and retires the
// old ones, reclaiming the space of overwritten and deleted records
// (Viper's space reclamation). The caller must quiesce writers; readers
// may continue — they keep resolving through the displaced view, and
// the old pages are freed through the epoch manager only after every
// in-flight read has ended its pin. The volatile index is rebuilt with
// the new offsets. It returns the number of bytes reclaimed (the old
// pages count as reclaimed immediately even though the physical free
// is deferred by the grace period).
//
// Both heavy phases run multi-core: the old pages are scanned with the
// same page-parallel pass as recovery, and the key-sorted live records are
// copied in contiguous key ranges, a worker and a pageWriter per range,
// each taking fresh pages as it fills them. The new log lists the workers'
// pages in range order — key-ordered throughout — and its last page, behind
// the largest key, becomes the current page; every other worker leaves at
// most one partly filled page. On an error the fresh pages are freed and
// the store keeps its old log.
func (s *Store) Compact(fresh index.Index) (int64, error) {
	if s.closed.Load() {
		return 0, ErrClosed
	}
	t0 := time.Now()
	s.mu.Lock()
	oldPages := s.pages
	s.mu.Unlock()

	// Newest version per key, exactly like recovery.
	keys, srcs := s.scanLive(oldPages)

	// Copy live records into fresh pages.
	offs := make([]uint64, len(keys))
	workers := parallel.Workers(len(keys) / bulkMinPerWorker)
	filled := make([][]int64, workers) // each worker's pages, in fill order
	var cur *page                      // the last range's last page: the log goes on behind the largest key
	err := parallel.ForErr(workers, len(keys), func(w, lo, hi int) (err error) {
		pw := s.newPageWriter(s.allocPage)
		defer func() { filled[w] = pw.pages }()
		for i := lo; i < hi; i++ {
			val, _ := s.readRecord(nil, int64(srcs[i])) // live: the scan dropped tombstones
			if offs[i], err = pw.append(keys[i], val); err != nil {
				return err
			}
		}
		pw.commit()
		if hi == len(keys) {
			cur = &page{off: pw.pages[len(pw.pages)-1]}
			cur.pos.Store(int64(pw.used))
		}
		return nil
	})
	newPages := slices.Concat(filled...)
	if err == nil {
		err = fresh.BulkLoad(keys, offs)
	}
	if err != nil {
		freePages(s.region, newPages)
		return 0, err
	}

	// Install the new log and the rebuilt index.
	s.mu.Lock()
	s.pages = newPages
	s.cur.Store(cur)
	s.setIndex(fresh)
	prev := s.liveLen.Swap(int64(len(keys)))
	s.mu.Unlock()
	s.met.LiveDelta(int64(len(keys)) - prev)

	// Retire the old pages instead of freeing them in place: a reader
	// that resolved an offset through the displaced view may still be
	// inside its record read, and a freed page can be re-Alloc'd and
	// re-zeroed with plain writes. The epoch manager runs the frees once
	// every such pin has ended (two full epoch advances).
	if len(oldPages) > 0 {
		region := s.region // the deferred free must not keep the store alive
		epoch.RetireFunc(func() { freePages(region, oldPages) })
		epoch.Advance()
	}
	s.met.ObserveCompaction(time.Since(t0))
	return int64(len(oldPages)-len(newPages)) * PageSize, nil
}

// DropIndex simulates the crash: the DRAM index is discarded while the
// PMem pages survive. Get fails until Recover installs a new index.
func (s *Store) DropIndex(empty index.Index) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setIndex(empty)
}

// Sizes reports Table III's three footprints for the current state:
// index structure only, index+keys, and index+keys+values.
func (s *Store) Sizes() (structure, withKeys, withKV int64) {
	sz := s.view.Load().idx.Sizes()
	structure = sz.Structure
	withKeys = sz.Structure + sz.Keys
	withKV = withKeys + s.region.Allocated()
	return structure, withKeys, withKV
}
