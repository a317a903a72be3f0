package retrain

import (
	"sync"
	"sync/atomic"
	"time"
)

// Op is one write logged against a node while its rebuild is in flight,
// for replay into the rebuild at install.
type Op struct {
	Key, Val uint64
	Del      bool
}

// Aside is the build-aside retrain protocol of an index with a
// single-writer contract (alex, core.Composed, delta.Buffer): a node due
// for a rebuild is snapshotted on the writer, rebuilt as one task on the
// pool while it stays writable, and installed on the writer's timeline —
// at the next write (Install) or at Drain — with the writes it took
// meanwhile replayed from an op log. The task never touches the live
// structure. A nil pool builds inline and installs before Submit
// returns, so an owner has one retrain path with or without a pool.
//
// Each submission holds a ticket. Forget (the node was rebuilt on the
// spot or left the structure) and Reset (a bulk load) void the tickets
// they cover together with their logged writes, and a deposit whose
// ticket is void is dropped: that is the whole staleness rule.
//
// Every method but RetrainStats runs on the writer's timeline; only the
// task itself runs on a pool worker. The zero Aside has no pool; Init
// must set apply before the first Submit.
type Aside[N comparable, R any] struct {
	pool     *Pool
	apply    func(node N, r R, log []Op)
	inbox    inbox[deposit[N, R]]
	inflight map[N]uint64 // node -> ticket of its submission
	tickets  uint64
	log      []logged[N]

	retrains  atomic.Int64
	retrainNs atomic.Int64
}

// deposit is one finished rebuild and the ticket it was submitted under.
type deposit[N comparable, R any] struct {
	node   N
	ticket uint64
	r      R
}

// logged is one op-logged write and the node it hit.
type logged[N comparable] struct {
	node N
	Op
}

// Init sets the install: apply swaps r in for node and replays log, the
// writes node took while r was built, in order.
func (a *Aside[N, R]) Init(apply func(node N, r R, log []Op)) { a.apply = apply }

// SetPool routes subsequent rebuilds to p (nil: inline).
func (a *Aside[N, R]) SetPool(p *Pool) { a.pool = p }

// InFlight reports whether node's rebuild is submitted and not yet
// installed or voided.
func (a *Aside[N, R]) InFlight(node N) bool {
	if len(a.inflight) == 0 {
		return false
	}
	_, ok := a.inflight[node]
	return ok
}

// Submit hands build, which rebuilds a snapshot of node taken by the
// caller, to the pool, keyed by node. It is a no-op while node is in
// flight. A task that ran inline (nil pool, or a full or closed queue)
// is installed before Submit returns.
func (a *Aside[N, R]) Submit(node N, build func() R) {
	if a.InFlight(node) {
		return
	}
	if a.inflight == nil {
		a.inflight = make(map[N]uint64)
	}
	a.tickets++
	ticket := a.tickets
	a.inflight[node] = ticket
	a.pool.Submit(node, func() {
		start := time.Now()
		r := build()
		a.Count(start)
		a.inbox.put(deposit[N, R]{node: node, ticket: ticket, r: r})
	})
	a.Install()
}

// Log records a write against node for replay at install, if node is in
// flight.
func (a *Aside[N, R]) Log(node N, key, val uint64, del bool) {
	if a.InFlight(node) {
		a.log = append(a.log, logged[N]{node, Op{Key: key, Val: val, Del: del}})
	}
}

// Logged returns the number of writes waiting for replay.
func (a *Aside[N, R]) Logged() int { return len(a.log) }

// Forget voids node's rebuild in flight and drops its logged writes:
// node was rebuilt on the spot, so it holds them already, or it left the
// structure.
func (a *Aside[N, R]) Forget(node N) {
	if a.InFlight(node) {
		delete(a.inflight, node)
		a.takeLog(node)
	}
}

// Reset voids every rebuild in flight and drops the whole log: the
// structure was replaced (a bulk load).
func (a *Aside[N, R]) Reset() {
	clear(a.inflight)
	a.log = nil
}

// Install applies the deposited rebuilds whose tickets still hold, and
// reports whether anything was deposited.
func (a *Aside[N, R]) Install() bool {
	deps := a.inbox.takeAll()
	for _, d := range deps {
		if a.inflight[d.node] != d.ticket {
			continue
		}
		delete(a.inflight, d.node)
		a.apply(d.node, d.r, a.takeLog(d.node))
	}
	return len(deps) > 0
}

// Drain waits for the pool and installs, until an install submits no
// further rebuild.
func (a *Aside[N, R]) Drain() {
	for {
		a.pool.Drain()
		if !a.Install() {
			return
		}
	}
}

// takeLog removes and returns node's logged writes in order; the other
// nodes' stay queued.
func (a *Aside[N, R]) takeLog(node N) []Op {
	var mine []Op
	rest := a.log[:0]
	for _, l := range a.log {
		if l.node == node {
			mine = append(mine, l.Op)
		} else {
			rest = append(rest, l)
		}
	}
	clear(a.log[len(rest):])
	a.log = rest
	return mine
}

// Count adds one retrain that began at start and ends now. Submit counts
// its tasks; an owner counts the rebuilds it runs on the spot.
func (a *Aside[N, R]) Count(start time.Time) {
	a.retrains.Add(1)
	a.retrainNs.Add(time.Since(start).Nanoseconds())
}

// RetrainStats returns the number of retrains counted and their total
// time. Safe from any goroutine.
func (a *Aside[N, R]) RetrainStats() (int64, int64) {
	return a.retrains.Load(), a.retrainNs.Load()
}

// inbox hands finished rebuilds from pool workers to the writer.
type inbox[T any] struct {
	mu    sync.Mutex
	items []T
}

// put deposits one result.
func (b *inbox[T]) put(v T) {
	b.mu.Lock()
	b.items = append(b.items, v)
	b.mu.Unlock()
}

// takeAll removes and returns every deposited result, oldest first, and
// nil when there is none (the common, allocation-free case on the hot
// path).
func (b *inbox[T]) takeAll() []T {
	if !b.mu.TryLock() {
		// A worker is mid-put; the writer will pick the deposit up on its
		// next pass rather than stall here.
		return nil
	}
	items := b.items
	b.items = nil
	b.mu.Unlock()
	return items
}
