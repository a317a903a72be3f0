// Package viper implements a Viper-style NVM-oriented persistent
// key-value store (Benson et al., VLDB'21), the paper's fair end-to-end
// comparison environment: a volatile index kept entirely in DRAM maps
// keys to record offsets, while full records (8-byte key, ~200-byte
// value) live in fixed-size pages on (simulated) persistent memory.
//
// The index is pluggable through the index.Index interface — exactly the
// seam the paper added to Viper to host its six learned and six
// traditional indexes.
//
// The region is the store. Every page begins with a stamp (a magic, a
// region-wide page sequence number, and a kind: log or free), and nothing
// in DRAM lists the pages: Open walks the stamps to find the log, oldest
// page first, and rebuilds the DRAM index by scanning those pages and
// bulk-loading the index (Fig 16). The store stamps each page under its
// lock as it takes it, so below the log's end at most one chunk is ever
// unstamped (a reused page between the allocator's clear and its stamp),
// save the fresh pages of a BulkPut, which a reservation in their first
// page's stamp covers until each is written, and two unstamped chunks in a
// row outside every reservation end the walk. Recover, Compact and
// BulkPut take their page list from the same walk. A restart is "drop the
// Store, open the bytes", and the new store writes on in the newest page.
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
	mu      sync.Mutex    // page rollover, deletes, recovery
	seq     atomic.Uint64 // the largest page sequence number stamped
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
	// (write, delete, scan) the operation needs.
	ErrUnsupported = errors.New("viper: operation unsupported by index")
	// ErrValueSize rejects a value the record format cannot carry.
	ErrValueSize = errors.New("viper: invalid value size")
)

// Specific value-size violations; both wrap ErrValueSize.
var (
	ErrEmptyValue  = fmt.Errorf("%w: empty values are not supported", ErrValueSize)
	ErrValueTooBig = fmt.Errorf("%w: value exceeds page size", ErrValueSize)
)

// Open creates a store over the region using idx as the volatile index,
// attached to whatever log the region holds: it walks the page stamps
// (walkPages) and, when they list log pages, bulk-loads idx from their
// newest live records, as Recover does, and resumes the newest page where
// its records end, so a restart takes no fresh page; an empty region opens
// empty after two stamp reads. A region restored from an image into a
// fresh Region has an allocator that has handed out nothing: Open rebuilds
// it, every chunk up to the last stamped one allocated and the pages
// stamped free on its free list, and stamps free the chunks a crash
// caught unstamped (walkPages). Open panics when idx cannot bulk-load the
// log it finds.
func Open(region *pmem.Region, idx index.Index, opts ...Option) *Store {
	s := &Store{region: region, valueSize: DefaultValueSize}
	for _, o := range opts {
		o(s)
	}
	if s.retrainMode == RetrainAsync {
		// A small fraction of the machine (NewPool starts at least one
		// worker), so background rebuilds never crowd out foreground work.
		s.pool = retrain.NewPool(parallel.Workers(8)/2, 0)
	}
	if s.sink != nil {
		s.met = s.sink.StoreSink()
	}
	t0 := time.Now()
	w := walkPages(region)
	s.seq.Store(w.seq)
	if region.Allocated() == 0 && w.end > 0 {
		for region.Allocated() < w.end {
			_, _ = region.Alloc(PageSize) // a bump: the free list is empty, and w.end fits the region
		}
		s.stampFree(w.cleared)
		freePages(region, w.free)
	}
	if len(w.log) == 0 {
		s.setIndex(idx)
	} else {
		tail, err := s.load(idx, w.log)
		if err != nil {
			panic(fmt.Errorf("viper: Open: %w", err))
		}
		cur := &page{off: w.log[len(w.log)-1]}
		cur.pos.Store(int64(tail))
		s.cur.Store(cur)
		s.met.ObserveRecovery(time.Since(t0))
	}
	if s.sink != nil {
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

// appendRecord writes one record, a span of one, into a slot claimed
// from the current page and returns its offset; an empty value is a
// tombstone. The writer that finds the page full rolls over under the
// lock, the only writer to allocate: it writes the fresh page's stamp and
// its own record as one span, so the rollover too is one write and one
// flush, before it publishes the page. The claimed tail of a full page is
// abandoned; its zeroed header terminates the recovery scan of that page.
func (s *Store) appendRecord(key uint64, value []byte) (int64, error) {
	n := recordHeader + len(value)
	if stampSize+n > PageSize {
		return 0, ErrValueTooBig
	}
	for {
		p := s.cur.Load()
		if p != nil {
			if pos := p.pos.Add(int64(n)) - int64(n); pos+int64(n) <= PageSize {
				writeSpan(nil, s.region, p.off+pos, n, 0, 0, []uint64{key}, [][]byte{value})
				return p.off + pos, nil
			}
		}
		s.mu.Lock()
		if s.cur.Load() != p {
			s.mu.Unlock() // another writer rolled over
			continue
		}
		off, err := s.allocPage()
		if err == nil {
			writeSpan(nil, s.region, off, stampSize+n, s.seq.Add(1), 0, []uint64{key}, [][]byte{value})
			np := &page{off: off}
			np.pos.Store(stampSize + int64(n))
			s.cur.Store(np)
			off += stampSize
		}
		s.mu.Unlock()
		return off, err
	}
}

// writeSpan is the store's one log write. It lays the records of keys
// and vals out back to back in the n reserved bytes at off — each a
// header (key, value length, flags) and its value, an empty value
// encoded as a tombstone — behind a log page's stamp when seq is not 0
// (carrying the reservation resv), formatting them in place inside one
// device write's stall (Round.WriteFill), then issues the span's one
// flush. The write is an access of rd, or a lone one when rd is nil. A
// Put or Delete writes a lone span of one record in the shared current
// page, stamping the page when it is the page's first; Compact writes a
// page's stamp and records as a lone span (pageWriter), and BulkPut writes
// its pages into rounds.
func writeSpan(rd *pmem.Round, region *pmem.Region, off int64, n int, seq uint64, resv int64, keys []uint64, vals [][]byte) {
	rd.WriteFill(region, off, n, func(dst []byte) {
		if seq != 0 {
			putStamp(dst, seq, pageLog, resv)
			dst = dst[stampSize:]
		}
		for i, key := range keys {
			binary.LittleEndian.PutUint64(dst[0:8], key)
			binary.LittleEndian.PutUint32(dst[8:12], uint32(len(vals[i])))
			dst[12] = 0
			if len(vals[i]) == 0 {
				dst[12] = flagDeleted
			}
			dst = dst[recordHeader+copy(dst[recordHeader:], vals[i]):]
		}
	})
	region.Flush(off, n)
}

// header decodes the record header at the front of b, which holds at
// least recordHeader bytes: the record's key, its value length and its
// flags.
//
//pieces:hotpath
func header(b []byte) (key uint64, vlen uint32, flags byte) {
	return binary.LittleEndian.Uint64(b[0:8]), binary.LittleEndian.Uint32(b[8:12]), b[12]
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
	_, vlen, flags := header(rec)
	if flags&flagDeleted != 0 {
		return nil, false
	}
	end := recordHeader + int(vlen)
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
// writers too. A read-only index is refused before anything is written.
func (s *Store) Put(key uint64, value []byte) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if len(value) == 0 {
		return ErrEmptyValue
	}
	v := s.view.Load()
	if v.caps.ReadOnly {
		return fmt.Errorf("%w: index %s is read-only: %w", ErrUnsupported, v.idx.Name(), index.ErrReadOnly)
	}
	sp := s.met.StartPut(stripe(key))
	off, err := s.appendRecord(key, value)
	if err != nil {
		sp.Done()
		return err
	}
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
	if _, err := s.appendRecord(key, nil); err != nil {
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

// grow sizes the scratch for rounds of batch entries.
func (sc *scanScratch) grow(batch int) {
	if cap(sc.keys) < batch {
		sc.keys = make([]uint64, batch)
		sc.offs = make([]uint64, batch)
		sc.vals = make([][]byte, batch)
		sc.order = make([]int, batch)
		sc.pack = make([]uint64, batch)
	}
	sc.keys, sc.offs, sc.vals = sc.keys[:batch], sc.offs[:batch], sc.vals[:batch]
}

var scanPool = sync.Pool{New: func() interface{} { return new(scanScratch) }}

// maxScanBatch bounds a scan round so batch positions fit the packed
// offset|position sort words (offset<<20 | position).
const maxScanBatch = 1 << 20

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
// nil for tombstones — back to its batch position in vals. A span of
// records is extended by the next record exactly when that costs no more
// blocks than reading it apart: extending pays the blocks past the
// span's last, a separate access every block of the record, so the span
// takes the record when its first block is at most one past the span's
// last. An offset-ordered round over a dense log region thus costs one
// near-sequential device walk instead of one access per record; stale
// records inside a span are never parsed, just skipped by offset
// arithmetic. A record with no neighbour in reach goes through
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
	recLen := uint64(recordHeader + s.valueSize)
	size := uint64(s.region.Size())
	m := len(ord)
	for j := 0; j < m; {
		first := offs[ord[j]]
		end := first + recLen // the span's extent so far
		runEnd := j + 1
		for ; runEnd < m && offs[ord[runEnd]]/pmem.BlockSize <= (end-1)/pmem.BlockSize+1; runEnd++ {
			end = offs[ord[runEnd]] + recLen
		}
		if runEnd-j < 2 {
			vals[ord[j]], _ = s.readRecord(rd, int64(first))
			j++
			continue
		}
		spanLen := min(end, size) - first
		span := rd.ReadNoCopy(s.region, int64(first), int(spanLen))
		for ; j < runEnd; j++ {
			i := ord[j]
			rel := offs[i] - first
			if hdrEnd := rel + recordHeader; hdrEnd <= uint64(len(span)) {
				_, vlen, flags := header(span[rel:])
				if flags&flagDeleted != 0 {
					vals[i] = nil
					continue
				}
				if end := hdrEnd + uint64(vlen); end <= uint64(len(span)) {
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
// only as long as Get's. Range is Ranges over one scan.
func (s *Store) Range(start uint64, n int, fn func(key uint64, value []byte) bool) error {
	return s.ranges([]Scan{{Start: start, N: n}}, nil, emitter{one: fn})
}

// Scan is one scan of a Ranges run: the live entries with key >= Start
// in ascending key order, at most N of them (N <= 0: no limit).
type Scan struct {
	Start uint64
	N     int
}

// Ranges is the one scan engine. It runs scans in order, passing each
// live entry of scans[i] to emit(i, key, value) as Range passes it to
// its fn; emit returning false ends scan i only. Before scan i > 0
// starts, a non-nil more is asked more(i), once, when every scan before
// i−1 has been emitted in full: false ends the run after scan i−1. An
// error (ErrClosed, or ErrUnsupported from a view without a cursor) ends
// the run where it is met.
//
// A scan runs in rounds. Each pulls a batch of index entries from the
// cursor, reads their records in ascending PMem offset order (the
// MultiGet aggregation trick — near-sequential record reads maximise the
// simulated device's block-buffer hit rate), then re-emits them in key
// order. A round is read in two groups, its head and its rest: the
// head's entries are pulled, sorted by offset and their reads issued
// without waiting, then the rest is pulled, sorted and read after a
// Resume, and the round waits before it emits (rangeHead has the split
// and its cost). Each round runs under its own epoch pin, from its pull
// to its emit, so a long scan never stalls Compact's deferred page
// reclamation; if an index install displaced the view across a yield,
// the cursor is reopened from the new view at the next key (counted as
// a reseek).
//
// The scans of a run share one pmem.Round, and they overlap at their
// boundaries only. When a round may be its scan's last — its pull came
// back short or reached the scan's limit — the next scan's first round
// is pulled and issued behind it before it is emitted, and the emit
// waits for the round's own mark alone: its host work runs inside the
// next scan's stall. Should the round hold a tombstone, its top-up is
// issued behind the next scan's first round and emitted before it.
// Inside a scan nothing overlaps, so a run of one scan pulls, reads and
// emits as its rounds alone would, and an early stop reads no round it
// would not have read anyway.
func (s *Store) Ranges(scans []Scan, more func(i int) bool, emit func(i int, key uint64, val []byte) bool) error {
	return s.ranges(scans, more, emitter{each: emit})
}

// emitter is where a run's entries go: to each, Ranges' emit, or to one,
// Range's fn, which emitRound calls as it is: an adapter closure between
// the engine and fn cost a 50-entry Range about 4 ns an entry.
type emitter struct {
	each func(i int, key uint64, val []byte) bool
	one  func(key uint64, val []byte) bool
}

func (s *Store) ranges(scans []Scan, more func(i int) bool, e emitter) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if len(scans) == 0 {
		return nil
	}
	batch := DefaultScanBatch
	if s.scanBatch > 0 {
		batch = s.scanBatch
	}
	var rd pmem.Round
	var pair [2]scanState
	cur, nxt := &pair[0], &pair[1]
	defer func() {
		for i := range pair {
			pair[i].end()
			pair[i].release()
		}
	}()
	// g pins cur's round in flight, gn nxt's first round while both are.
	var gn epoch.Guard
	g, err := s.startScan(&rd, cur, 0, scans[0], batch)
	ahead, stop := false, false // nxt started; the run ends after cur
	for err == nil {
		if cur.last && !ahead && !stop {
			if j := cur.i + 1; j < len(scans) && (more == nil || more(j)) {
				if gn, err = s.startScan(&rd, nxt, j, scans[j], batch); err != nil {
					break
				}
				ahead = true
			} else {
				stop = true
			}
		}
		goOn := s.emitRound(&rd, cur, e)
		g.Exit()
		g = epoch.Guard{}
		if goOn {
			// The pin-yield between rounds is the iteration boundary itself.
			s.met.ScanPinYield()
			g = epoch.Enter(stripe(cur.from))
			err = s.pullRound(&rd, cur)
			continue
		}
		cur.end()
		if !ahead {
			j := cur.i + 1
			if stop || j == len(scans) || (more != nil && !more(j)) {
				return nil
			}
			if gn, err = s.startScan(&rd, nxt, j, scans[j], batch); err != nil {
				break
			}
		}
		cur, nxt, g, gn = nxt, cur, gn, epoch.Guard{}
		ahead, stop = false, false
	}
	g.Exit()
	gn.Exit()
	return err
}

// scanState is one scan of a run in progress: its place in the run and
// its limit, its cursor and the view the cursor walks, the key its next
// round pulls from and the live entries it has delivered; then its round
// in flight — the entries pulled into sc, whether the pull came back
// full, whether the round may be the scan's last, and the mark of the
// run's pmem.Round at which its reads are served.
type scanState struct {
	i, n  int
	v     *storeView
	cur   index.Cursor
	from  uint64
	count int
	sp    telemetry.Span
	sc    *scanScratch

	m          int
	full, last bool
	mark       pmem.Mark
}

// startScan begins scan i of a run in st and issues its first round
// under a pin of its own, which it returns held; on an error the pin is
// already released.
func (s *Store) startScan(rd *pmem.Round, st *scanState, i int, sc Scan, batch int) (epoch.Guard, error) {
	// st's cursor is closed (end); its round fields are pullRound's.
	st.i, st.n, st.from, st.count = i, sc.N, sc.Start, 0
	st.sp = s.met.StartScan(stripe(sc.Start))
	if st.sc == nil {
		st.sc = scanPool.Get().(*scanScratch)
	}
	st.sc.grow(batch)
	g := epoch.Enter(stripe(st.from))
	if err := s.pullRound(rd, st); err != nil {
		g.Exit()
		return epoch.Guard{}, err
	}
	return g, nil
}

// pullRound pulls st's next round under the caller's fresh pin and
// issues its record reads into rd without waiting. A fresh pin re-checks
// the store view: a cursor that walks a displaced view is closed and
// reopened at the next key against the new one.
func (s *Store) pullRound(rd *pmem.Round, st *scanState) error {
	if v := s.view.Load(); st.cur == nil || v != st.v {
		if st.cur != nil {
			// An install (Compact, Recover, DropIndex) displaced the view
			// while the pin was down: the cursor walks retired structures
			// and its remaining offsets may be remapped.
			st.cur.Close()
			st.cur = nil
			s.met.ScanReseek()
		}
		st.v = v
		if v.seam.Range == nil || !v.caps.Range {
			return fmt.Errorf("%w: index %s cannot scan", ErrUnsupported, v.idx.Name())
		}
		st.cur = v.seam.Range.Range(st.from)
	}
	// Clamp the pull to the caller's remaining limit: a scan of 10 must
	// not read a full batch of records from PMem. Tombstones in the pull
	// don't count as delivered, so a later round tops up.
	pull := len(st.sc.keys)
	if st.n > 0 {
		pull = min(pull, st.n-st.count)
	}
	// The head's reads are issued before the rest is pulled, so the rest's
	// cursor walk, sort and touch-ahead run inside the head's stall. A
	// Resume before each group's reads pays them from the present when the
	// rounds already issued were served while the cursor walked.
	keys, offs := st.sc.keys, st.sc.offs
	head := rangeHead(pull)
	m := st.cur.Next(keys[:head], offs[:head])
	rd.Resume()
	presorted := s.readGroup(rd, st.sc, 0, m)
	if m == head && head < pull {
		m += st.cur.Next(keys[head:pull], offs[head:pull])
		rd.Resume()
		presorted = s.readGroup(rd, st.sc, head, m) && presorted && (m == head || offs[head-1] <= offs[head])
	}
	st.m, st.full = m, m == pull // a short pull exhausted the range
	st.last = !st.full || (st.n > 0 && m == st.n-st.count) || keys[m-1] == math.MaxUint64
	if m > 0 {
		s.met.ScanBatchPulled(m, presorted)
	}
	st.mark = rd.Mark()
	return nil
}

// emitRound waits for the reads of st's round in flight and passes its
// live entries to emit in key order; tombstones never consume the
// limit. It reports whether the scan goes on with another round.
func (s *Store) emitRound(rd *pmem.Round, st *scanState, e emitter) bool {
	m := st.m
	if m == 0 {
		return false
	}
	rd.WaitMark(st.mark)
	goOn := st.full
	i, n, count := st.i, st.n, st.count
	vals := st.sc.vals[:m]
	keys := st.sc.keys[:len(vals)]
	for j, v := range vals {
		if v == nil {
			continue
		}
		count++
		var ok bool
		if e.one != nil {
			ok = e.one(keys[j], v)
		} else {
			ok = e.each(i, keys[j], v)
		}
		if !ok || (n > 0 && count >= n) {
			goOn = false
			break
		}
	}
	st.count = count
	// A round that delivered 2^64-1 has nowhere left to resume from.
	st.from = keys[m-1] + 1
	return goOn && st.from != 0
}

// end closes st's cursor and records its scan's latency; it is a no-op
// on a scan already ended or never started.
func (st *scanState) end() {
	if st.cur != nil {
		st.cur.Close()
		st.cur = nil
	}
	st.sp.Done()
	st.sp = telemetry.Span{}
}

// release returns st's scratch to the pool, dropping its region aliases.
func (st *scanState) release() {
	if st.sc != nil {
		clear(st.sc.vals)
		scanPool.Put(st.sc)
		st.sc = nil
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
// the configured ValueSize. BulkPut loads the live index in place, so the
// caller must quiesce readers as well as writers, as for Compact: no
// reader may reach a loaded key before BulkPut returns.
//
// The records are fixed-size, so the layout is settled before anything is
// written: page p of the load holds keys[p·perPage : (p+1)·perPage] behind
// its stamp. The pages are allocated up front under the store's lock and
// take the next sequence numbers in load order, so they join the log
// behind whatever it holds (a previous current page is sealed where it
// stands; its zeroed tail ends its scan), and the last becomes the current
// page, positioned behind the last loaded record, where the next Put
// lands. Under the same lock a reused page is stamped free as it is taken,
// and the first fresh page is stamped free carrying the reservation (see
// walkPages), so each fresh page is written once, by its span. Workers
// then write whole pages, each a span into the worker's round: which worker
// writes which page changes no byte. A round resumes before each page, so
// no write is served before it is issued, and a worker leaves its round
// unpaid. Meanwhile the index bulk-loads the full sorted array on a
// goroutine of its own, with the offsets of the settled layout, so the
// build runs beside the page formatting and inside the writes' stalls;
// BulkPut pays every round once the build is done. A load into a log that
// already held records (the page walk found some) pays the rounds first
// and loads the index from the whole log instead, through the page scan
// Recover runs, so the index answers what a recovery would: the earlier
// keys stay, and the load's records win.
func (s *Store) BulkPut(keys []uint64, value []byte) error {
	if value == nil {
		value = make([]byte, s.valueSize)
	}
	if len(value) == 0 {
		return ErrEmptyValue
	}
	recLen := recordHeader + len(value)
	if stampSize+recLen > PageSize {
		return ErrValueTooBig
	}
	if s.closed.Load() {
		return ErrClosed
	}
	t0 := time.Now()
	perPage := (PageSize - stampSize) / recLen
	nPages := (len(keys) + perPage - 1) / perPage
	pages := make([]int64, nPages)
	s.mu.Lock()
	held := walkPages(s.region).log
	seq := s.seq.Add(uint64(nPages)) - uint64(nPages) // page p's is seq+1+p
	head := s.region.Allocated()
	for i := range pages {
		var err error
		if pages[i], err = s.allocPage(); err != nil {
			s.mu.Unlock()
			s.discard(pages[:i])
			return err
		}
		if pages[i] < head { // reused: Region.Alloc cleared its stamp
			s.stamp(pages[i], seq+1+uint64(i), pageFree, 0)
		}
	}
	// The fresh pages run from head to the allocator's new head.
	resv := s.region.Allocated()
	if first := slices.IndexFunc(pages, func(p int64) bool { return p >= head }); first >= 0 {
		s.stamp(pages[first], seq+1+uint64(first), pageFree, resv)
	}
	if nPages > 0 {
		last := &page{off: pages[nPages-1]}
		last.pos.Store(int64(stampSize + (len(keys)-(nPages-1)*perPage)*recLen))
		s.cur.Store(last)
	}
	s.mu.Unlock()
	idx := s.view.Load().idx
	loaded := make(chan error, 1)
	if len(held) == 0 {
		go func() {
			offs := make([]uint64, len(keys))
			for p, page := range pages {
				for i := p * perPage; i < min((p+1)*perPage, len(keys)); i++ {
					offs[i] = uint64(page) + uint64(stampSize+(i-p*perPage)*recLen)
				}
			}
			loaded <- idx.BulkLoad(keys, offs)
		}()
	}
	vals := make([][]byte, min(perPage, len(keys)))
	for i := range vals {
		vals[i] = value
	}
	workers := parallel.Workers(nPages)
	rounds := make([]pmem.Round, workers)
	parallel.For(workers, nPages, func(w, lo, hi int) {
		rd := &rounds[w]
		for p := lo; p < hi; p++ {
			from, to := p*perPage, min((p+1)*perPage, len(keys))
			var r int64
			if pages[p] >= head {
				r = resv
			}
			rd.Resume()
			writeSpan(rd, s.region, pages[p], stampSize+(to-from)*recLen, seq+1+uint64(p), r, keys[from:to], vals)
		}
	})
	pay := func() {
		for i := range rounds {
			rounds[i].Wait()
		}
	}
	n := len(keys)
	var err error
	if len(held) > 0 {
		pay() // the scan reads the load's pages
		live, offs, _ := s.scanLive(append(held, pages...))
		n, err = len(live), idx.BulkLoad(live, offs)
	} else {
		err = <-loaded
	}
	pay()
	if err != nil {
		return err
	}
	prev := s.liveLen.Swap(int64(n))
	s.met.LiveDelta(int64(n) - prev)
	s.met.ObserveBulkLoad(time.Since(t0))
	return nil
}

// scanRun is what a page scan saw, one entry per record: its key and its
// seq. seq places the record in the log: the index of its page in the
// scanned list (which walkPages orders by page sequence number), below
// that its position inside the page and, in the lowest bit, its
// flagDeleted. The newest version of a key is its entry with the largest
// seq.
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
// log applies. tail is where the next record of the last page goes: behind
// its last record when every byte from there to the page's end is zero,
// else PageSize, for a page a torn concurrent write left with a hole (a
// record behind the zeroed header), which must not be written into.
//
// Pages fan out across workers in contiguous chunks of that order. Each
// page is one sequential device read parsed in memory, not one access per
// record header; its walk starts behind the stamp and ends at the zeroed
// header that follows its last record, or at a length that would run past
// the page (which no written record has, so it is not trusted to be one).
// A chunk whose keys came out strictly increasing — every never-updated
// bulk load — is done; any other is radix-sorted by key, which keeps a
// key's entries in log order, and the last entry of each equal-key run
// kept. The chunks, now sorted with distinct keys, merge pairwise in chunk
// order, the later chunk (its seqs are larger) winning.
func (s *Store) scanLive(pages []int64) (keys, offs []uint64, tail int) {
	workers := parallel.Workers(len(pages))
	runs := make([]scanRun, workers)
	tail = PageSize
	parallel.For(workers, len(pages), func(w, lo, hi int) {
		n := (hi - lo) * (PageSize/(recordHeader+s.valueSize) + 1)
		run := scanRun{make([]uint64, 0, n), make([]uint64, 0, n)}
		sorted := true
		for p := lo; p < hi; p++ {
			buf := s.region.ReadNoCopy(pages[p], PageSize)
			pos := stampSize
			for pos+recordHeader <= PageSize {
				key, vlen, flags := header(buf[pos:])
				end := pos + recordHeader + int(vlen)
				if key == 0 && vlen == 0 && flags == 0 || end > PageSize {
					break // end of page
				}
				sorted = sorted && (len(run.keys) == 0 || run.keys[len(run.keys)-1] < key)
				run.push(key, uint64(p)<<seqPosBits|uint64(pos)<<1|uint64(flags&flagDeleted))
				pos = end
			}
			if p == len(pages)-1 && zeroes(buf[pos:]) {
				tail = pos
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
	return keys, offs, tail
}

// zeroes reports whether every byte of b is zero.
func zeroes(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
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

// Recover rebuilds the volatile index from the log pages the page walk
// finds: it scans every record, keeps the newest version per key, drops
// tombstones, and bulk-loads the index — what Open does over a region
// that holds a log. The page scan runs page-parallel (see scanLive) and
// the index's own bulk-load path may fan out further. The caller provides
// a fresh index instance.
func (s *Store) Recover(fresh index.Index) error {
	if s.closed.Load() {
		return ErrClosed
	}
	t0 := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.load(fresh, walkPages(s.region).log); err != nil {
		return err
	}
	s.met.ObserveRecovery(time.Since(t0))
	return nil
}

// load bulk-loads fresh from the newest live record of each key in the
// log pages, oldest page first, and installs it. It returns the last
// page's tail (scanLive).
func (s *Store) load(fresh index.Index, pages []int64) (tail int, err error) {
	keys, offs, tail := s.scanLive(pages)
	if err := fresh.BulkLoad(keys, offs); err != nil {
		return 0, err
	}
	s.setIndex(fresh)
	prev := s.liveLen.Swap(int64(len(keys)))
	s.met.LiveDelta(int64(len(keys)) - prev)
	return tail, nil
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
// Both heavy phases run multi-core: the old pages, as the page walk lists
// them, are scanned with the same page-parallel pass as recovery, and the
// key-sorted live records are copied in contiguous key ranges, a worker
// and a pageWriter per range, each taking fresh pages, stamped free under
// the store's lock until written, and sequence numbers above the old
// log's, as it fills them. The last range's last
// page, behind the largest key, becomes the current page, so it is
// committed once every other worker is done, under the largest sequence
// number: the Puts that follow it outrank every copy. Every other worker
// leaves at most one partly filled page. On an error the fresh pages are
// stamped free and freed, and the store keeps its old log.
func (s *Store) Compact(fresh index.Index) (int64, error) {
	if s.closed.Load() {
		return 0, ErrClosed
	}
	t0 := time.Now()
	s.mu.Lock()
	oldPages := walkPages(s.region).log
	s.mu.Unlock()

	// Newest version per key, exactly like recovery.
	keys, srcs, _ := s.scanLive(oldPages)

	// Copy live records into fresh pages.
	offs := make([]uint64, len(keys))
	workers := parallel.Workers(len(keys) / bulkMinPerWorker)
	filled := make([][]int64, workers) // each worker's pages, in fill order
	var last *pageWriter               // the last range's: the log goes on behind the largest key
	err := parallel.ForErr(workers, len(keys), func(w, lo, hi int) (err error) {
		pw := s.newPageWriter(func() (int64, uint64, error) {
			s.mu.Lock()
			defer s.mu.Unlock()
			seq := s.seq.Add(1)
			off, err := s.takePage(seq)
			return off, seq, err
		})
		defer func() { filled[w] = pw.pages }()
		for i := lo; i < hi; i++ {
			val, _ := s.readRecord(nil, int64(srcs[i])) // live: the scan dropped tombstones
			if offs[i], err = pw.append(keys[i], val); err != nil {
				return err
			}
		}
		if hi == len(keys) {
			last = pw
			return nil
		}
		pw.commit()
		return nil
	})
	var cur *page
	if err == nil && last != nil {
		last.seq = s.seq.Add(1)
		last.commit()
		cur = &page{off: last.pages[len(last.pages)-1]}
		cur.pos.Store(int64(last.used))
	}
	newPages := slices.Concat(filled...)
	if err == nil {
		err = fresh.BulkLoad(keys, offs)
	}
	if err != nil {
		s.discard(newPages)
		return 0, err
	}

	// Install the new log and the rebuilt index.
	s.mu.Lock()
	s.cur.Store(cur)
	s.setIndex(fresh)
	prev := s.liveLen.Swap(int64(len(keys)))
	s.mu.Unlock()
	s.met.LiveDelta(int64(len(keys)) - prev)

	// Stamp the old pages free now, oldest first: a crash part way leaves
	// a suffix of the old log live, whose records the new log outranks
	// and whose tombstones still follow the records they kill. A second
	// Compact inside the grace period then walks past them. Retire their
	// frees instead of freeing in place: a reader that resolved an offset
	// through the displaced view may still be inside its record read, and
	// a freed page can be re-Alloc'd and re-zeroed with plain writes. The
	// epoch manager runs the frees once every such pin has ended (two full
	// epoch advances).
	if len(oldPages) > 0 {
		s.stampFree(oldPages)
		region := s.region // the deferred free must not keep the store alive
		epoch.RetireFunc(func() { freePages(region, oldPages) })
		epoch.Advance()
	}
	s.met.ObserveCompaction(time.Since(t0))
	return int64(len(oldPages)-len(newPages)) * PageSize, nil
}

// DropIndex discards the DRAM index, installing empty in its place; the
// log is untouched. Get misses until Recover installs a rebuilt index. A
// crash is simulated by dropping the Store and opening the region again.
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
