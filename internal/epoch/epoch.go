// Package epoch implements epoch-based memory reclamation (EBR) for the
// store's lock-free read paths, plus the Versioned[T] snapshot holder
// that pairs with it. It is the reclamation half of the design whose
// publication half PR 5 built: copy-on-write installs publish a fresh
// structure with one atomic store, and this package decides when the
// displaced structure is safe to release.
//
// Go's garbage collector already keeps *heap memory* alive while any
// reader holds a pointer, so unlike the C++ learned-index codebases this
// package is not defending against use-after-free of ordinary objects.
// What it defends is everything the GC cannot see:
//
//   - PMem page recycling. pmem.Region.Free returns a page to the
//     allocator and a later Alloc re-zeroes it with plain writes. A
//     reader that resolved an offset through the old index must finish
//     its record read before the page is reused, or it races with the
//     zeroing. Compact therefore retires its page frees through
//     RetireFunc instead of freeing in place.
//   - Observability. Retire/Advance counters make the reclamation
//     pipeline visible (telemetry's epoch section), so a stalled reader
//     pinning garbage shows up as a growing deferred-free queue.
//   - Discipline. Readers that pin an epoch are declaring "I am inside
//     the read-side critical section"; the store's and the server's
//     tests fail when a pin outlives the tests or a stalled socket write
//     holds one.
//
// The protocol is the classic three-generation scheme (Fraser's EBR as
// used by Harris lists and by HydraList/XIndex for their per-thread
// epochs): a global epoch e advances only when every active reader is
// pinned at e, and garbage retired in epoch e-2 is freed when e
// advances — at that point no reader can still be inside a critical
// section that began while the e-2 garbage was reachable, because two
// full advances have intervened.
//
// Readers do not register threads in advance (Go goroutines have no
// stable id): Enter hashes the caller onto one of a fixed set of padded
// slots and packs (epoch, reader count) into the slot's single uint64,
// so any number of concurrent readers share a slot by joining its pin.
// Joining a slot pinned at an older epoch is deliberately conservative:
// it can only delay reclamation, never allow it early.
package epoch

import (
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	// refBits is the width of a slot's reader count; the epoch lives in
	// the remaining high bits. 2^16 simultaneous readers per slot is
	// unreachable in practice (GOMAXPROCS bounds runnable readers).
	refBits = 16
	refMask = 1<<refBits - 1

	// generations is the limbo ring: garbage retired at epoch e is freed
	// when the global epoch reaches e+2, so three buckets suffice.
	generations = 3

	// advanceEvery bounds the deferred-free queue: every advanceEvery
	// retires into one bucket triggers an opportunistic advance attempt.
	advanceEvery = 32
)

// slot is one padded pin slot: the high bits of pin hold the epoch the
// slot's readers entered at, the low refBits hold the live reader count
// (zero = unpinned). The pad keeps concurrent readers hashed to
// neighbouring slots off each other's cache line.
type slot struct {
	pin atomic.Uint64
	_   [56]byte
}

// retired is one deferred reclamation: a victim kept reachable until
// its grace period ends (discipline + accounting) or a free callback to
// run then (the load-bearing case: PMem page frees).
type retired struct {
	victim any
	free   func()
}

// Manager is one reclamation domain. The zero value is not usable; use
// NewManager. A process normally uses the package-level Default
// manager so independently created stores and wrappers share one
// epoch clock.
type Manager struct {
	epoch    atomic.Uint64 // global epoch, starts at 1
	_        [56]byte
	advances atomic.Int64
	_        [56]byte
	retiredN atomic.Int64
	_        [56]byte
	freedN   atomic.Int64
	_        [56]byte

	mask  uint64
	slots []slot

	// mu serializes Retire bucket selection with Advance: a retire that
	// read epoch e must land in bucket e%generations before the epoch
	// can move on, or garbage could age into the wrong generation.
	// Readers never touch it.
	mu    sync.Mutex
	limbo [generations][]retired
}

// NewManager returns a manager with at least slots pin slots (rounded
// up to a power of two; slots <= 0 sizes from GOMAXPROCS).
func NewManager(slots int) *Manager {
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0) * 4
	}
	n := 1
	for n < slots {
		n <<= 1
	}
	m := &Manager{mask: uint64(n - 1), slots: make([]slot, n)}
	m.epoch.Store(1)
	return m
}

// Guard is an active read-side pin. It must be released with Exit on
// every path out of the critical section and must not be stored in a
// struct, global, or container, where it would outlive it. The zero
// Guard is a no-op to Exit.
type Guard struct {
	s *slot
}

// Enter pins the current epoch and returns the guard releasing it.
// stripe spreads unrelated readers across slots (any value works — a
// key hash, a shard id); collisions only share a cache line, never
// block. Enter is wait-free apart from CAS retries against readers on
// the same slot.
//
//pieces:hotpath
func (m *Manager) Enter(stripe uint64) Guard {
	s := &m.slots[stripe&m.mask]
	for {
		cur := s.pin.Load()
		if cur&refMask == 0 {
			// First reader on the slot: pin the current global epoch.
			e := m.epoch.Load()
			if s.pin.CompareAndSwap(cur, e<<refBits|1) {
				return Guard{s: s}
			}
			continue
		}
		if cur&refMask == refMask {
			continue // pathological: count saturated, wait for an Exit
		}
		// Join the slot's existing pin (possibly one epoch behind the
		// global — conservative, see the package comment).
		if s.pin.CompareAndSwap(cur, cur+1) {
			return Guard{s: s}
		}
	}
}

// Exit releases the pin. Safe on the zero Guard.
//
//pieces:hotpath
func (g Guard) Exit() {
	if g.s != nil {
		g.s.pin.Add(^uint64(0)) // count >= 1, so -1 never borrows into the epoch bits
	}
}

// Retire defers victim until the grace period ends. For ordinary heap
// structures this pins them for accounting (and keeps the displaced
// structure alive exactly as long as the protocol says a reader could
// still be traversing it — the discipline the C++ codebases need for
// correctness, kept here so the design transfers).
func (m *Manager) Retire(victim any) { m.retire(victim, nil) }

// RetireFunc defers free until the grace period ends. This is the
// load-bearing form: resources the GC cannot protect (PMem pages) are
// released inside free, which runs only after two epoch advances.
func (m *Manager) RetireFunc(free func()) { m.retire(nil, free) }

func (m *Manager) retire(victim any, free func()) {
	m.mu.Lock()
	e := m.epoch.Load()
	b := &m.limbo[e%generations]
	*b = append(*b, retired{victim: victim, free: free})
	m.retiredN.Add(1)
	if len(*b) >= advanceEvery {
		m.advanceLocked()
	}
	m.mu.Unlock()
}

// Advance attempts one epoch advance, freeing the generation that
// completed its grace period on success. It fails (returning false)
// while any slot is still pinned at an older epoch. Writers call it
// after publishing; it is never on a read path.
func (m *Manager) Advance() bool {
	m.mu.Lock()
	ok := m.advanceLocked()
	m.mu.Unlock()
	return ok
}

func (m *Manager) advanceLocked() bool {
	e := m.epoch.Load()
	for i := range m.slots {
		cur := m.slots[i].pin.Load()
		if cur&refMask != 0 && cur>>refBits != e {
			return false // a reader is still inside an older epoch
		}
	}
	// All active readers are pinned at e: anything retired at e-2 is
	// now unreachable from any critical section. Bucket (e+1)%3 holds
	// exactly that generation.
	m.epoch.Store(e + 1)
	m.advances.Add(1)
	b := &m.limbo[(e+1)%generations]
	for i := range *b {
		if (*b)[i].free != nil {
			(*b)[i].free()
		}
		(*b)[i] = retired{}
		m.freedN.Add(1)
	}
	*b = (*b)[:0]
	return true
}

// Stats is the manager's observable state: epoch clock position,
// lifetime retire/free counts, and the current deferred-free queue
// depth (Pending). GlobalStats adds the optimistic-read counters.
type Stats struct {
	Epoch    uint64 `json:"epoch"`
	Advances int64  `json:"advances"`
	Retired  int64  `json:"retired"`
	Freed    int64  `json:"freed"`
	Pending  int64  `json:"pending"`

	ReadAttempts  int64 `json:"read_attempts"`
	ReadRetries   int64 `json:"read_retries"`
	ReadFallbacks int64 `json:"read_fallbacks"`
}

// Stats reports the manager's counters (without the package-global
// optimistic-read counters; see GlobalStats).
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	pending := 0
	for i := range m.limbo {
		pending += len(m.limbo[i])
	}
	st := Stats{
		Epoch:    m.epoch.Load(),
		Advances: m.advances.Load(),
		Retired:  m.retiredN.Load(),
		Freed:    m.freedN.Load(),
		Pending:  int64(pending),
	}
	m.mu.Unlock()
	return st
}

// def is the process-wide default manager: stores, wrappers and retrain
// installers share one epoch clock so a single reader pins everyone's
// garbage at most briefly.
var def = NewManager(0)

// Enter pins the default manager's epoch.
//
//pieces:hotpath
func Enter(stripe uint64) Guard { return def.Enter(stripe) }

// Retire defers victim on the default manager.
func Retire(victim any) { def.Retire(victim) }

// RetireFunc defers free on the default manager.
func RetireFunc(free func()) { def.RetireFunc(free) }

// Advance attempts one advance on the default manager.
func Advance() bool { return def.Advance() }
