package epoch

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// drainAdvance advances until it succeeds n times (failing the test if
// the clock is stuck, which would mean a leaked pin).
func drainAdvance(t *testing.T, m *Manager, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		for tries := 0; !m.Advance(); tries++ {
			if tries > 1000 {
				t.Fatalf("advance %d/%d stuck: %+v", i, n, m.Stats())
			}
			runtime.Gosched()
		}
	}
}

func TestGracePeriodTwoFullEpochs(t *testing.T) {
	m := NewManager(4)
	var freed atomic.Bool
	m.RetireFunc(func() { freed.Store(true) })

	drainAdvance(t, m, 2)
	if freed.Load() {
		t.Fatal("freed before two full epochs elapsed")
	}
	drainAdvance(t, m, 1)
	if !freed.Load() {
		t.Fatal("not freed after grace period")
	}
	st := m.Stats()
	if st.Retired != 1 || st.Freed != 1 || st.Pending != 0 {
		t.Fatalf("stats after drain: %+v", st)
	}
}

func TestPinBlocksAdvance(t *testing.T) {
	m := NewManager(4)
	g := m.Enter(0)

	// The pin is at the current epoch, so one advance is allowed...
	if !m.Advance() {
		t.Fatal("advance blocked by a current-epoch pin")
	}
	// ...but now the pin is one epoch behind and must block the clock.
	if m.Advance() {
		t.Fatal("advance succeeded across an old-epoch pin")
	}
	g.Exit()
	if !m.Advance() {
		t.Fatal("advance still blocked after Exit")
	}
}

func TestNoPrematureReclamationWhilePinned(t *testing.T) {
	m := NewManager(4)
	g := m.Enter(0)

	var freed atomic.Bool
	m.RetireFunc(func() { freed.Store(true) })

	// However often the writer side tries, the grace period cannot end
	// while the reader is pinned: at most one advance can succeed.
	for i := 0; i < 10; i++ {
		m.Advance()
	}
	if freed.Load() {
		t.Fatal("freed while a reader was pinned")
	}
	if st := m.Stats(); st.Pending != 1 {
		t.Fatalf("pending = %d, want 1", st.Pending)
	}

	g.Exit()
	drainAdvance(t, m, 3)
	if !freed.Load() {
		t.Fatal("not freed after the reader exited")
	}
}

func TestSlotSharingRefcount(t *testing.T) {
	m := NewManager(1) // force every reader onto one slot
	g1 := m.Enter(0)
	g2 := m.Enter(7) // joins g1's pin (single slot)

	m.Advance() // pin now one epoch behind
	if m.Advance() {
		t.Fatal("advance succeeded with two readers pinned at an old epoch")
	}
	g1.Exit()
	if m.Advance() {
		t.Fatal("advance succeeded with one reader still pinned")
	}
	g2.Exit()
	if !m.Advance() {
		t.Fatal("advance blocked after all readers exited")
	}
}

func TestZeroGuardExit(t *testing.T) {
	var g Guard
	g.Exit() // must not panic
}

func TestRetireTriggersOpportunisticAdvance(t *testing.T) {
	m := NewManager(4)
	for i := 0; i < advanceEvery*generations+1; i++ {
		m.Retire(i)
	}
	if st := m.Stats(); st.Advances == 0 {
		t.Fatalf("no opportunistic advance after %d retires: %+v", advanceEvery*generations+1, st)
	}
}

func TestVersionedPublishLoadRetire(t *testing.T) {
	m := NewManager(4)
	type snap struct{ v int }
	h := NewVersioned(m, &snap{v: 1})
	if got := h.Load(); got == nil || got.v != 1 {
		t.Fatalf("Load after seed = %+v", got)
	}
	h.Publish(&snap{v: 2})
	if got := h.Load(); got == nil || got.v != 2 {
		t.Fatalf("Load after Publish = %+v", got)
	}
	if st := m.Stats(); st.Retired != 1 {
		t.Fatalf("Publish did not retire the displaced snapshot: %+v", st)
	}
}

func TestVersionedZeroValue(t *testing.T) {
	var h Versioned[int]
	if h.Load() != nil {
		t.Fatal("zero Versioned Load != nil")
	}
	v := 42
	h.Publish(&v) // nil manager falls back to Default; first Publish retires nothing
	if got := h.Load(); got == nil || *got != 42 {
		t.Fatalf("Load after Publish on zero Versioned = %v", got)
	}
}

// TestStressNoUseAfterFree is the property test of the protocol: a
// writer keeps publishing snapshots and retiring the displaced one with
// a freed-flag callback; readers pin, load, and verify the snapshot
// they are holding was not freed while they were inside the critical
// section. Any premature reclamation trips the check (and -race would
// flag the unsynchronized flag write/read as well).
func TestStressNoUseAfterFree(t *testing.T) {
	m := NewManager(0)
	type entry struct {
		val   int64
		freed atomic.Bool
	}
	var cur atomic.Pointer[entry]
	cur.Store(&entry{})

	const publishes = 2000
	readers := runtime.GOMAXPROCS(0) * 2
	if readers < 4 {
		readers = 4
	}
	var stop atomic.Bool
	var wg sync.WaitGroup

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var last int64 = -1
			for !stop.Load() {
				g := m.Enter(uint64(id))
				e := cur.Load()
				if e.freed.Load() {
					t.Errorf("reader %d: snapshot %d freed while pinned", id, e.val)
					g.Exit()
					return
				}
				if e.val < last {
					t.Errorf("reader %d: value went backwards %d -> %d", id, last, e.val)
					g.Exit()
					return
				}
				last = e.val
				g.Exit()
			}
		}(r)
	}

	for i := int64(1); i <= publishes; i++ {
		next := &entry{val: i}
		old := cur.Swap(next)
		m.RetireFunc(func() { old.freed.Store(true) })
		if i%8 == 0 {
			m.Advance()
		}
	}
	stop.Store(true)
	wg.Wait()

	// Drain: with all readers gone the clock must free everything.
	for i := 0; i < generations+1; i++ {
		drainAdvance(t, m, 1)
	}
	if st := m.Stats(); st.Pending != 0 || st.Freed != st.Retired {
		t.Fatalf("garbage left after drain: %+v", st)
	}
}

// TestPadLayout pins the cache-line pads: each pad ends on a 64-byte
// boundary and a struct ending in one is a whole number of lines, so a
// field added beside a pad fails here instead of sharing a line.
func TestPadLayout(t *testing.T) {
	var m Manager
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"sizeof slot", unsafe.Sizeof(slot{}), 64},
		{"offsetof Manager.advances", unsafe.Offsetof(m.advances), 64},
		{"offsetof Manager.retiredN", unsafe.Offsetof(m.retiredN), 128},
		{"offsetof Manager.freedN", unsafe.Offsetof(m.freedN), 192},
		{"offsetof Manager.mask", unsafe.Offsetof(m.mask), 256},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}
