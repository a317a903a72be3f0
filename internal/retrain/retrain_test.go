package retrain

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestNilPool(t *testing.T) {
	var p *Pool
	ran := false
	p.Submit("k", func() { ran = true })
	if !ran {
		t.Fatal("nil pool must run the task inline")
	}
	p.Drain()
	p.Close()
	if s := p.Stats(); s != (Stats{}) {
		t.Fatalf("nil pool stats = %+v, want zeros", s)
	}
}

func TestAsyncExecutesAll(t *testing.T) {
	p := NewPool(4, 128)
	defer p.Close()
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		p.Submit(i, func() { n.Add(1) })
	}
	p.Drain()
	if got := n.Load(); got != 100 {
		t.Fatalf("executed %d tasks, want 100", got)
	}
	s := p.Stats()
	if s.Executed != 100 || s.Submitted != 100 {
		t.Fatalf("stats = %+v", s)
	}
	if s.QueueDepth != 0 {
		t.Fatalf("queue depth %d after Drain", s.QueueDepth)
	}
	if s.BackgroundNs <= 0 {
		t.Fatalf("async pool accounted no background time")
	}
}

// TestCoalescing blocks the single worker, queues two tasks for the
// same key, and checks that only the newest runs.
func TestCoalescing(t *testing.T) {
	p := NewPool(1, 16)
	defer p.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	p.Submit("blocker", func() { close(started); <-gate })
	<-started // blocker is running; everything below stays pending

	var got atomic.Int64
	p.Submit("seg", func() { got.Store(1) })
	p.Submit("seg", func() { got.Store(2) }) // newest wins
	close(gate)
	p.Drain()

	if v := got.Load(); v != 2 {
		t.Fatalf("coalesced task ran version %d, want 2 (newest)", v)
	}
	s := p.Stats()
	if s.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", s.Coalesced)
	}
	if s.Executed != 2 { // blocker + newest seg task
		t.Fatalf("executed = %d, want 2", s.Executed)
	}
}

// TestOverflowRunsInline fills the queue behind a blocked worker and
// checks that the overflowing submission executes on the caller.
func TestOverflowRunsInline(t *testing.T) {
	p := NewPool(1, 2)
	defer p.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	p.Submit("blocker", func() { close(started); <-gate })
	<-started // worker is occupied; the queue fills behind it
	var a, b, c atomic.Bool
	p.Submit("a", func() { a.Store(true) })
	p.Submit("b", func() { b.Store(true) })
	p.Submit("c", func() { c.Store(true) }) // queue full: inline
	if !c.Load() {
		t.Fatal("overflow submission did not run inline")
	}
	if s := p.Stats(); s.Inline != 1 {
		t.Fatalf("inline = %d, want 1", s.Inline)
	}
	close(gate)
	p.Drain()
	if !a.Load() || !b.Load() {
		t.Fatal("queued tasks lost")
	}
}

func TestCloseDrainsQueue(t *testing.T) {
	p := NewPool(2, 64)
	var n atomic.Int64
	for i := 0; i < 50; i++ {
		p.Submit(i, func() { n.Add(1) })
	}
	p.Close()
	if got := n.Load(); got != 50 {
		t.Fatalf("Close left %d/50 tasks unexecuted", 50-got)
	}
	// After Close, Submit still works (inline fallback).
	ran := false
	p.Submit("late", func() { ran = true })
	if !ran {
		t.Fatal("Submit after Close did not run inline")
	}
	p.Close() // idempotent
}

func TestDrainConcurrentSubmitters(t *testing.T) {
	p := NewPool(4, 256)
	defer p.Close()
	var n atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p.Submit([2]int{g, i}, func() { n.Add(1) })
			}
		}(g)
	}
	wg.Wait()
	p.Drain()
	s := p.Stats()
	if n.Load() != s.Executed {
		t.Fatalf("ran %d, stats say %d", n.Load(), s.Executed)
	}
	if s.Executed+s.Coalesced != s.Submitted {
		t.Fatalf("executed %d + coalesced %d != submitted %d", s.Executed, s.Coalesced, s.Submitted)
	}
	if s.QueueDepth != 0 {
		t.Fatalf("queue depth %d after Drain", s.QueueDepth)
	}
}

func TestInbox(t *testing.T) {
	var b inbox[int]
	if got := b.takeAll(); got != nil {
		t.Fatalf("empty inbox takeAll = %v", got)
	}
	b.put(1)
	b.put(2)
	got := b.takeAll()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("takeAll = %v, want [1 2]", got)
	}
	if again := b.takeAll(); again != nil {
		t.Fatalf("second takeAll = %v, want nil", again)
	}
}
