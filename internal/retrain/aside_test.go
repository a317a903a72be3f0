package retrain

import (
	"reflect"
	"testing"
)

// installed is one apply call a test Aside made.
type installed struct {
	node string
	r    int
	log  []Op
}

// newAside returns an Aside over named nodes whose installs are recorded
// in *got.
func newAside(p *Pool, got *[]installed) *Aside[string, int] {
	a := new(Aside[string, int])
	a.Init(func(node string, r int, log []Op) { *got = append(*got, installed{node, r, log}) })
	a.SetPool(p)
	return a
}

// heldPool returns a single-worker pool whose worker is held on a
// blocking task until release is called.
func heldPool(t *testing.T) (p *Pool, release func()) {
	p = NewPool(1, 0)
	gate, started := make(chan struct{}), make(chan struct{})
	p.Submit("blocker", func() { close(started); <-gate })
	<-started
	released := false
	release = func() {
		if !released {
			released = true
			close(gate)
		}
	}
	t.Cleanup(func() { release(); p.Close() })
	return p, release
}

func op(k uint64) Op { return Op{Key: k, Val: k * 10} }

// TestAsideNilPool: with no pool the rebuild runs on the caller and is
// installed before Submit returns, so nothing is ever left in flight.
func TestAsideNilPool(t *testing.T) {
	var got []installed
	a := newAside(nil, &got)
	a.Submit("n", func() int { return 7 })
	if want := []installed{{"n", 7, nil}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("installed %v, want %v", got, want)
	}
	if a.InFlight("n") {
		t.Fatal("node still in flight after an inline Submit")
	}
	a.Log("n", 1, 10, false)
	if a.Logged() != 0 {
		t.Fatal("a write to a node not in flight was logged")
	}
	if n, _ := a.RetrainStats(); n != 1 {
		t.Fatalf("%d retrains counted, want 1", n)
	}
}

// TestAsideInFlightWindow: behind a held worker a submitted node stays in
// flight, a second Submit for it builds nothing, and nothing installs
// until the task ran.
func TestAsideInFlightWindow(t *testing.T) {
	p, release := heldPool(t)
	var got []installed
	a := newAside(p, &got)
	builds := 0
	a.Submit("n", func() int { builds++; return 1 })
	a.Submit("n", func() int { builds++; return 2 })
	if !a.InFlight("n") || a.InFlight("m") {
		t.Fatalf("in flight: n %v, m %v; want n only", a.InFlight("n"), a.InFlight("m"))
	}
	if a.Install() || len(got) != 0 {
		t.Fatalf("installed %v while the worker is held", got)
	}
	release()
	a.Drain()
	if builds != 1 || !reflect.DeepEqual(got, []installed{{"n", 1, nil}}) {
		t.Fatalf("%d builds, installed %v; want the first submission once", builds, got)
	}
	if a.InFlight("n") {
		t.Fatal("node still in flight after Drain")
	}
}

// TestAsideLogOrder: writes are logged only for nodes in flight, and an
// install replays its node's writes in order while the other nodes' stay
// queued.
func TestAsideLogOrder(t *testing.T) {
	p, release := heldPool(t)
	var got []installed
	a := newAside(p, &got)
	a.Log("a", 99, 0, false) // not in flight yet
	gateB, startedB := make(chan struct{}), make(chan struct{})
	a.Submit("a", func() int { return 1 })
	a.Submit("b", func() int { close(startedB); <-gateB; return 2 })
	a.Log("a", 1, 10, false)
	a.Log("b", 2, 20, false)
	a.Log("a", 3, 0, true)
	a.Log("c", 4, 40, false) // never submitted
	a.Log("b", 5, 50, false)
	a.Log("a", 6, 60, false)
	release()
	<-startedB // the worker finished a's task, deposit included
	a.Install()
	wantA := installed{"a", 1, []Op{op(1), {Key: 3, Del: true}, op(6)}}
	if !reflect.DeepEqual(got, []installed{wantA}) {
		t.Fatalf("installed %v, want %v", got, wantA)
	}
	if a.Logged() != 2 {
		t.Fatalf("%d writes logged after a's install, want b's 2", a.Logged())
	}
	close(gateB)
	a.Drain()
	wantB := installed{"b", 2, []Op{op(2), op(5)}}
	if !reflect.DeepEqual(got, []installed{wantA, wantB}) {
		t.Fatalf("installed %v, want %v", got, []installed{wantA, wantB})
	}
	if a.Logged() != 0 {
		t.Fatalf("%d writes still logged after the drain", a.Logged())
	}
}

// TestAsideVoided: a deposit submitted before Forget or Reset is built
// but dropped together with its logged writes; a node submitted again
// after Forget installs the new rebuild with only the writes since.
func TestAsideVoided(t *testing.T) {
	t.Run("forget", func(t *testing.T) {
		p, release := heldPool(t)
		var got []installed
		a := newAside(p, &got)
		a.Submit("a", func() int { return 1 })
		a.Submit("b", func() int { return 2 })
		a.Log("a", 1, 10, false)
		a.Log("b", 2, 20, false)
		a.Forget("a")
		if a.InFlight("a") || a.Logged() != 1 {
			t.Fatalf("after Forget: a in flight %v, %d logged; want false, 1", a.InFlight("a"), a.Logged())
		}
		a.Submit("a", func() int { return 3 })
		a.Log("a", 4, 40, false)
		release()
		a.Drain()
		// The new task replaced the voided one in the queue, ahead of b's.
		want := []installed{{"a", 3, []Op{op(4)}}, {"b", 2, []Op{op(2)}}}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("installed %v, want %v", got, want)
		}
	})
	t.Run("reset", func(t *testing.T) {
		p, release := heldPool(t)
		var got []installed
		a := newAside(p, &got)
		a.Submit("a", func() int { return 1 })
		a.Submit("b", func() int { return 2 })
		a.Log("a", 1, 10, false)
		a.Log("b", 2, 20, false)
		a.Reset()
		if a.InFlight("a") || a.InFlight("b") || a.Logged() != 0 {
			t.Fatalf("after Reset: in flight %v %v, %d logged", a.InFlight("a"), a.InFlight("b"), a.Logged())
		}
		release()
		a.Drain()
		if len(got) != 0 {
			t.Fatalf("installed %v after Reset, want nothing", got)
		}
		if n, _ := a.RetrainStats(); n != 2 {
			t.Fatalf("%d retrains counted, want the 2 voided ones", n)
		}
	})
}
