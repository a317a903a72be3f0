// Package pmem simulates byte-addressable persistent memory (the paper's
// Intel Optane PMem) for the Viper-style KV store. The simulation is a
// plain byte region plus a latency model that injects extra per-access
// delay on the exact code paths that would touch the NVM device — the
// property the paper's end-to-end question depends on ("is the
// bottleneck the NVM or the index?"). Latency can be disabled for
// functional tests. A stall is accounted as the nanoseconds asked. An
// access reads the clock once when it is issued, does the simulator's own
// work (counters, block buffer, prefetch, a write's copy or in-place
// fill) and then waits for that clock plus its stall; a Round of reads
// waits once for the sum of its stalls, restarting from the present when
// its caller's own work between accesses outlasted them (Round.Resume).
// The wait ends at the first clock read past the deadline: on a 2-vCPU
// x86-64 VM whose clock read is ~50 ns, a lone access pays 79–94 ns
// beyond its ask and an access of a 16-read round 8 ns
// (BenchmarkSpinOvershoot).
//
// On Linux a region is one anonymous mapping outside the Go heap,
// advised to 2 MiB pages before anything touches it, as DAX maps Optane:
// NewRegion zeroes nothing, a page pays one huge-page fault when it is
// first written, and a record access pays no 4 KiB page walk the model
// does not bill; the read prefetch stays for the cache miss. A region is
// never unmapped. When it dies, a finalizer releases its pages
// (MADV_DONTNEED, so the mapping reads as zeros) and keeps the mapping
// for the next region of the same size: a view wrongly kept past its
// region reads stale bytes but never faults. No method keeps its Region
// alive, so a caller holds the *Region across every call on it and for
// as long as it uses a view a call returned. Race builds, and builds for
// other systems, keep a region in a Go heap slice instead: the race
// detector watches heap memory only.
//
// Persistence semantics: everything written is durable (CPU-cache
// volatility is not modelled); Flush is an accounted no-op so stores can
// report flush counts, and Snapshot/Restore simulate crash-recovery.
package pmem

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"learnedpieces/internal/prefetch"
)

// LatencyModel is the extra delay injected per access, at the
// granularity of the device's 256-byte blocks (not CPU cache lines).
// Zero values disable injection on that path.
type LatencyModel struct {
	// ReadNs is added per started 256-byte block read.
	ReadNs int64
	// WriteNs is added per started 256-byte block written.
	WriteNs int64
}

// Optane approximates the paper's device relative to DRAM: ~3-4x slower
// reads, and cheaper writes (the device buffers them). No bandwidth
// limit is modelled.
func Optane() LatencyModel { return LatencyModel{ReadNs: 170, WriteNs: 90} }

// None disables latency injection (pure-DRAM baseline / unit tests).
func None() LatencyModel { return LatencyModel{} }

const blockSize = 256

// Region is a simulated PMem device. Latency is charged per 256-byte
// block touched, with a one-block read buffer per region approximating
// the device's internal block buffer (consecutive accesses to the same
// block are free, as on real Optane).
//
// Concurrency: Alloc, Free, FreeChunks, Snapshot and Restore are fully
// synchronized. Read, ReadNoCopy, Prefetch, Write, WriteGather, WriteFill
// and Flush are safe to call concurrently as long as no write overlaps a
// concurrent read of the same bytes (a ReadNoCopy view only reads what
// its holder dereferences; a prefetch, Prefetch's or a stalled read's
// own, is a cache hint that reads nothing, so it overlaps no write) — the
// discipline the Viper store upholds (every record slot is claimed by
// exactly one appender and only read after its index entry is
// published), and what lets its recovery, compaction and bulk-load paths
// fan out across cores without a region lock. All access counters and
// the block buffer are atomics, so the latency model stays race-free
// under any interleaving. SetLatency must not run concurrently with
// accesses.
type Region struct {
	mu   sync.Mutex
	data []byte
	lat  LatencyModel
	head atomic.Int64    // bump allocator
	free map[int][]int64 // freed chunks by exact size

	lastBlock atomic.Int64 // most recently touched block + 1 (0 = none)

	reads   atomic.Int64
	writes  atomic.Int64
	flushes atomic.Int64
	// Device-level accounting: 256-byte lines touched and injected stall
	// nanoseconds asked on accesses that were not block-buffer hits (the
	// wall clock pays a little more, see spinUntil). All counters
	// are region-local; an observability sink pulls them through
	// AccessStats rather than being pushed per access, so accounting
	// costs one uncontended atomic add.
	lineReads    atomic.Int64
	lineWrites   atomic.Int64
	readStallNs  atomic.Int64
	writeStallNs atomic.Int64
}

// AccessStats is the region's cumulative device accounting, the shape a
// telemetry probe reads (counts since creation, monotone).
type AccessStats struct {
	Reads, Writes, Flushes    int64
	LineReads, LineWrites     int64
	ReadStallNs, WriteStallNs int64
}

// ErrOutOfSpace is returned when an allocation exceeds the region size.
var ErrOutOfSpace = errors.New("pmem: out of space")

// NewRegion creates a zeroed region of the given size, advised to 2 MiB
// pages when it spans at least one.
func NewRegion(size int, lat LatencyModel) *Region {
	r := &Region{lat: lat}
	r.mapData(size)
	return r
}

// Size returns the region capacity in bytes.
func (r *Region) Size() int { return len(r.data) }

// Allocated returns the bytes handed out by Alloc.
func (r *Region) Allocated() int64 { return r.head.Load() }

// SetLatency swaps the latency model (used by the ablation bench). It
// must not be called concurrently with accesses.
func (r *Region) SetLatency(lat LatencyModel) { r.lat = lat }

// AccessStats returns every device counter at once (reads concurrent
// with accesses see a consistent-enough view: each counter is loaded
// once, all monotone).
func (r *Region) AccessStats() AccessStats {
	return AccessStats{
		Reads:        r.reads.Load(),
		Writes:       r.writes.Load(),
		Flushes:      r.flushes.Load(),
		LineReads:    r.lineReads.Load(),
		LineWrites:   r.lineWrites.Load(),
		ReadStallNs:  r.readStallNs.Load(),
		WriteStallNs: r.writeStallNs.Load(),
	}
}

// Alloc reserves size bytes and returns their offset, reusing a freed
// chunk of the same size when one exists.
func (r *Region) Alloc(size int) (int64, error) {
	r.mu.Lock()
	if list := r.free[size]; len(list) > 0 {
		off := list[len(list)-1]
		r.free[size] = list[:len(list)-1]
		r.mu.Unlock()
		// Zero the chunk so page scans see a clean terminator.
		clear(r.data[off : off+int64(size)])
		return off, nil
	}
	r.mu.Unlock()
	for {
		cur := r.head.Load()
		if cur+int64(size) > int64(len(r.data)) {
			return 0, ErrOutOfSpace
		}
		if r.head.CompareAndSwap(cur, cur+int64(size)) {
			return cur, nil
		}
	}
}

// Free returns a chunk previously handed out by Alloc(size) to the
// allocator for reuse (used by store compaction to reclaim pages).
func (r *Region) Free(off int64, size int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.free == nil {
		r.free = make(map[int][]int64)
	}
	r.free[size] = append(r.free[size], off)
}

// FreeChunks reports how many freed chunks of the given size await reuse.
func (r *Region) FreeChunks(size int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.free[size])
}

// clockBase anchors the stall clock: time.Since of a Time that carries a
// monotonic reading is one monotonic clock read, where time.Now reads the
// wall clock as well.
var clockBase = time.Now()

// clock is the stall clock, in nanoseconds since clockBase.
//
//pieces:hotpath meter
func clock() int64 { return int64(time.Since(clockBase)) }

// spinUntil busy-waits until the stall clock reaches deadline, to emulate
// a device stall; sleeping would let the scheduler hide the latency being
// modelled. A zero deadline asks no stall and returns at once. The wait
// ends at the first clock read past the deadline, so with the read that
// set the deadline a bare wait costs the ask plus about two clock reads:
// 79–94 ns on a 2-vCPU x86-64 VM with a ~50 ns clock read
// (BenchmarkSpinOvershoot).
//
//pieces:hotpath meter
func spinUntil(deadline int64) {
	if deadline == 0 {
		return
	}
	for clock() < deadline {
	}
}

// Round is a read round: device reads issued back to back whose stalls
// are paid by one wait at the end, for the first stalled access's clock
// plus the sum of every stall the round asked. No stall overlaps
// another; only the round's own work between its accesses runs inside
// them. A caller whose own work between bursts of accesses may outlast
// the stalls asked so far calls Resume before the next burst. Each
// access is charged exactly as the same access made alone (counters,
// block buffer, prefetch). The zero Round is empty; it is a small stack
// value used by one goroutine, and its views must not reach a caller
// before Wait.
type Round struct {
	deadline int64 // stall clock at which the round's stalls are paid; 0 = none asked yet
}

// Resume readies the round for a burst of accesses that follows work of
// the caller's own: when the clock has already passed the round's
// deadline, the modelled device has sat idle since, so the round
// restarts from the present and the burst's stalls are paid from now,
// not from a time before they were asked. It reads the clock once, and
// not at all on a round that has asked no stall.
//
//pieces:hotpath
func (rd *Round) Resume() {
	if rd.deadline == 0 {
		return
	}
	if now := clock(); rd.deadline < now {
		rd.deadline = now
	}
}

// ReadNoCopy is r.ReadNoCopy(off, n) as one access of the round: charged
// the same, its stall added to the round's. On a nil round it is a lone
// access, which pays its own stall before it returns.
//
//pieces:hotpath
func (rd *Round) ReadNoCopy(r *Region, off int64, n int) []byte {
	r.reads.Add(1)
	spinUntil(r.charge(off, n, r.lat.ReadNs, false, rd))
	return r.data[off : off+int64(n)]
}

// Wait pays the round's summed stall and empties the round.
//
//pieces:hotpath
func (rd *Round) Wait() {
	spinUntil(rd.deadline)
	rd.deadline = 0
}

// charge accounts the 256-byte lines [off, off+n) touches and the
// injected latency, skipping the stall when the access stays inside the
// most recently touched block (block-buffer hit) or the model is
// disabled — lines are counted either way, stall only when asked. An
// access that spans several blocks pays every one of them, even when the
// first is the buffered block: reading a record as header-then-value
// therefore pays the header's block twice whenever the value straddles,
// which is why the store reads (and writes) a record in one access. An
// empty access touches no block: it counts no line, asks no stall and
// leaves the block buffer where it was.
//
// charge reads the stall clock once, when a stalled access is issued,
// and does not wait. A lone access (rd nil) gets back the deadline its
// caller waits for once its own work is done — 0 when no stall is asked
// — so the counter adds, the block buffer, the prefetch and a write's
// copy run inside the stall rather than after it. An access of a round
// adds its stall to the round's deadline instead, setting it from the
// clock at the round's first stalled access, and returns 0.
//
// A read that asks a stall prefetches every host line it covers, so the
// real cache and TLB misses on the backing bytes overlap the stall that
// models the device fetching them instead of following it. Writes and
// block-buffer hits issue nothing.
//
//pieces:hotpath
func (r *Region) charge(off int64, n int, perBlock int64, write bool, rd *Round) (deadline int64) {
	if n <= 0 {
		return 0
	}
	first := off / blockSize
	last := (off + int64(n) - 1) / blockSize
	lines := last - first + 1
	lineCount, stallCount := &r.lineReads, &r.readStallNs
	if write {
		lineCount, stallCount = &r.lineWrites, &r.writeStallNs
	}
	if perBlock <= 0 || (first == last && r.lastBlock.Load() == first+1) {
		lineCount.Add(lines) // disabled model or block-buffer hit: counted, not stalled
		return 0
	}
	stall := lines * perBlock
	switch {
	case rd == nil:
		deadline = clock() + stall
	case rd.deadline == 0:
		rd.deadline = clock() + stall
	default:
		rd.deadline += stall
	}
	lineCount.Add(lines)
	stallCount.Add(stall)
	if !write {
		prefetch.Slice(r.data[off : off+int64(n)])
	}
	r.lastBlock.Store(last + 1)
	return deadline
}

// Read copies len(buf) bytes at off into buf, paying read latency.
//
//pieces:hotpath
func (r *Region) Read(off int64, buf []byte) {
	r.reads.Add(1)
	deadline := r.charge(off, len(buf), r.lat.ReadNs, false, nil)
	copy(buf, r.data[off:off+int64(len(buf))])
	spinUntil(deadline)
}

// ReadNoCopy returns a view of the stored bytes, paying read latency.
// The view must not be modified.
//
//pieces:hotpath
func (r *Region) ReadNoCopy(off int64, n int) []byte {
	var lone *Round
	return lone.ReadNoCopy(r, off, n)
}

// Prefetch hints that the bytes at off are about to be read: it issues
// the prefetch instruction for their cache line, so several calls in a
// row overlap their host misses. It is not a device access — it counts
// nothing and charges no stall, the modelled device still serves every
// read in turn.
//
//pieces:hotpath
func (r *Region) Prefetch(off int64) { prefetch.Slice(r.data[off : off+1]) }

// Write stores data at off, paying write latency.
//
//pieces:hotpath
func (r *Region) Write(off int64, data []byte) { r.WriteGather(off, data, nil) }

// WriteGather stores head immediately followed by tail at off as one
// device access: one write, charged exactly as a single Write of the
// concatenation, without the caller staging the two parts into one
// buffer first.
//
//pieces:hotpath
func (r *Region) WriteGather(off int64, head, tail []byte) {
	r.writes.Add(1)
	deadline := r.charge(off, len(head)+len(tail), r.lat.WriteNs, true, nil)
	n := copy(r.data[off:], head)
	copy(r.data[off+int64(n):], tail)
	spinUntil(deadline)
}

// WriteFill is one device write of the n bytes at off whose content fill
// formats in place: charged exactly as a Write of n bytes, with fill run
// inside the write's stall, so a caller that would otherwise build the
// bytes in a DRAM image first (a bulk path's page) neither stages nor
// copies them. fill is handed the n bytes, zeroed or as last written,
// and must not keep them.
func (r *Region) WriteFill(off int64, n int, fill func(dst []byte)) {
	r.writes.Add(1)
	deadline := r.charge(off, n, r.lat.WriteNs, true, nil)
	fill(r.data[off : off+int64(n)])
	spinUntil(deadline)
}

// Flush records a persistence barrier (clwb/sfence equivalent).
//
//pieces:hotpath
func (r *Region) Flush(off int64, n int) {
	r.flushes.Add(1)
}

// Stats returns access counters: reads, writes, flushes.
func (r *Region) Stats() (reads, writes, flushes int64) {
	return r.reads.Load(), r.writes.Load(), r.flushes.Load()
}

// Snapshot captures the persisted state for crash simulation.
func (r *Region) Snapshot() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]byte, len(r.data))
	copy(out, r.data)
	return out
}

// Restore replaces the region contents with a snapshot (simulated
// restart: the DRAM index is gone, the PMem bytes survive).
func (r *Region) Restore(snap []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	clear(r.data[copy(r.data, snap):])
}
