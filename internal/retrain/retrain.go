// Package retrain moves learned-index retraining (segment merges, node
// expands, group compaction, full rebuilds) off the foreground Put
// path.
//
// The centrepiece is Pool: a bounded background worker pool with a
// coalescing task queue. Tasks are keyed by the structure they retrain
// (a segment, node or group pointer); at most one task per key is ever
// pending, and a newer submission for the same key replaces the queued
// closure ("newest request wins") — retraining is idempotent-by-rebuild,
// so only the latest snapshot matters. A nil pool runs every task inline
// on the submitting goroutine, so an adopting index has one retrain path
// whether or not a pool is attached: only where and when the closure
// runs differs.
//
// Aside (aside.go) covers the publication side for indexes with a
// single-writer contract, where the background worker must not touch the
// live structure: it tracks the nodes in flight, logs the writes they
// take, and installs each rebuild on the writer's timeline (at the next
// write, or at Drain) unless it was voided meanwhile.
package retrain

import (
	"sync"
	"sync/atomic"
	"time"
)

// Task is one unit of retraining work. It must be self-contained: the
// closure owns a snapshot of whatever it rebuilds and publishes the
// result itself (an atomic swap or an Aside deposit).
type Task func()

type entry struct {
	key any
	fn  Task
}

// Pool runs retraining tasks on a fixed set of background workers.
//
// Submit coalesces by key, Drain blocks until the pool is idle, and
// Close drains then stops the workers. A nil *Pool is valid: Submit
// runs the task inline with no accounting (the index's own RetrainStats
// still time it), Drain and Close are no-ops — adopting indexes hold a
// possibly-nil pool and never branch on it.
type Pool struct {
	mu      sync.Mutex
	idle    sync.Cond // pending == 0 && running == 0
	ready   sync.Cond // queue non-empty or closing
	pending map[any]*entry
	queue   []*entry
	running int
	closed  bool
	done    sync.WaitGroup

	workers  int
	queueCap int

	submitted    atomic.Int64
	coalesced    atomic.Int64
	executed     atomic.Int64
	inline       atomic.Int64
	depth        atomic.Int64
	backgroundNs atomic.Int64
	foregroundNs atomic.Int64
}

// Stats is a point-in-time snapshot of the pool's counters.
//
// Submitted counts every Submit call. Coalesced counts submissions that
// replaced an already-queued task for the same key. Executed counts
// closures actually run (background or inline). Inline counts the
// executed tasks that ran on the submitting goroutine: overflow and
// after-Close fallbacks. QueueDepth is the number
// of tasks currently queued or running. BackgroundNs/ForegroundNs split
// the total retraining time by where it was paid: a worker goroutine,
// or a stalled foreground caller.
type Stats struct {
	Workers      int
	QueueDepth   int64
	Submitted    int64
	Coalesced    int64
	Executed     int64
	Inline       int64
	BackgroundNs int64
	ForegroundNs int64
}

// NewPool starts a pool with the given worker count (at least one) and
// queue bound. queueCap <= 0 defaults to 64; when the queue is full a
// Submit that cannot coalesce falls back to inline execution rather
// than blocking behind or dropping work.
func NewPool(workers, queueCap int) *Pool {
	workers = max(workers, 1)
	if queueCap <= 0 {
		queueCap = 64
	}
	p := &Pool{
		pending:  make(map[any]*entry),
		workers:  workers,
		queueCap: queueCap,
	}
	p.idle.L = &p.mu
	p.ready.L = &p.mu
	for i := 0; i < workers; i++ {
		p.done.Add(1)
		go p.worker()
	}
	return p
}

// Submit schedules fn to retrain the structure identified by key. If a
// task for key is already queued (not yet running), fn replaces it and
// the older closure is dropped. On a nil or closed pool, or when the
// queue is full, fn runs inline before Submit returns.
func (p *Pool) Submit(key any, fn Task) {
	if p == nil {
		fn()
		return
	}
	p.submitted.Add(1)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.runForeground(fn)
		return
	}
	if e, ok := p.pending[key]; ok {
		e.fn = fn // newest request wins
		p.mu.Unlock()
		p.coalesced.Add(1)
		return
	}
	if len(p.queue) >= p.queueCap {
		p.mu.Unlock()
		p.runForeground(fn)
		return
	}
	e := &entry{key: key, fn: fn}
	p.pending[key] = e
	p.queue = append(p.queue, e)
	p.depth.Add(1)
	p.ready.Signal()
	p.mu.Unlock()
}

// runForeground executes fn on the calling goroutine and accounts the
// stall.
func (p *Pool) runForeground(fn Task) {
	start := time.Now()
	fn()
	p.foregroundNs.Add(time.Since(start).Nanoseconds())
	p.executed.Add(1)
	p.inline.Add(1)
}

func (p *Pool) worker() {
	defer p.done.Done()
	p.mu.Lock()
	for {
		for len(p.queue) == 0 && !p.closed {
			p.ready.Wait()
		}
		if len(p.queue) == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		e := p.queue[0]
		p.queue = p.queue[1:]
		delete(p.pending, e.key)
		p.running++
		fn := e.fn
		p.mu.Unlock()

		start := time.Now()
		fn()
		p.backgroundNs.Add(time.Since(start).Nanoseconds())
		p.executed.Add(1)

		p.mu.Lock()
		p.running--
		p.depth.Add(-1)
		if len(p.queue) == 0 && p.running == 0 {
			p.idle.Broadcast()
		}
	}
}

// Drain blocks until every queued and running task has finished. New
// submissions during Drain extend the wait. Nil-safe.
func (p *Pool) Drain() {
	if p == nil {
		return
	}
	p.mu.Lock()
	for len(p.queue) != 0 || p.running != 0 {
		p.idle.Wait()
	}
	p.mu.Unlock()
}

// Close drains the queue and stops the workers. After Close, Submit
// falls back to inline execution, so adopting indexes keep working
// through shutdown. Nil-safe and idempotent.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.done.Wait()
		return
	}
	p.closed = true
	p.ready.Broadcast()
	p.mu.Unlock()
	p.done.Wait()
}

// Stats returns a snapshot of the pool counters. Nil-safe: a nil pool
// reports zeros.
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	return Stats{
		Workers:      p.workers,
		QueueDepth:   p.depth.Load(),
		Submitted:    p.submitted.Load(),
		Coalesced:    p.coalesced.Load(),
		Executed:     p.executed.Load(),
		Inline:       p.inline.Load(),
		BackgroundNs: p.backgroundNs.Load(),
		ForegroundNs: p.foregroundNs.Load(),
	}
}
