package adapt

import (
	"sync"
	"testing"
	"time"

	"learnedpieces/internal/search"
	"learnedpieces/internal/telemetry"
)

// fakeFeed drives a Controller from scripted op counts: each call to
// push adds a window's worth of gets/puts to the running totals the
// Snapshot closure serves. Mutex-guarded so Start's controller
// goroutine can snapshot while the test pushes.
type fakeFeed struct {
	mu  sync.Mutex
	cur telemetry.Snapshot
}

func (f *fakeFeed) push(gets, puts int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cur.Store.Get.Ops += gets
	f.cur.Store.Put.Ops += puts
}

func (f *fakeFeed) pushScans(scans int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cur.Store.Scan.Ops += scans
}

func (f *fakeFeed) snapshot() telemetry.Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cur
}

// flipRecorder captures every knob call.
type flipRecorder struct {
	policies   []search.Policy
	asyncs     []bool
	thresholds []int
	floors     []int
	scanBatch  []int
	caches     []bool
	promotes   int
}

func (r *flipRecorder) knobs() Knobs {
	return Knobs{
		SearchPolicy:     func(p search.Policy) { r.policies = append(r.policies, p) },
		RetrainAsync:     func(on bool) { r.asyncs = append(r.asyncs, on) },
		RetrainThreshold: func(n int) { r.thresholds = append(r.thresholds, n) },
		BatchFloor:       func(n int) { r.floors = append(r.floors, n) },
		ScanBatch:        func(n int) { r.scanBatch = append(r.scanBatch, n) },
		CacheEnable:      func(on bool) { r.caches = append(r.caches, on) },
		Promote:          func(keys []uint64) { r.promotes++ },
	}
}

func newTestController(feed *fakeFeed, rec *flipRecorder, hot *HotKeys) *Controller {
	return NewController(Config{
		Snapshot: feed.snapshot,
		Hot:      hot,
		Knobs:    rec.knobs(),
	})
}

func TestControllerConfirmHysteresis(t *testing.T) {
	feed := &fakeFeed{}
	rec := &flipRecorder{}
	c := newTestController(feed, rec, nil)

	c.Tick() // prime: no baseline yet, must not classify
	if got := c.Phase(); got != PhaseIdle {
		t.Fatalf("phase after priming tick = %v, want idle", got)
	}

	// One read-heavy window: candidate only, no knobs flipped yet
	// (Confirm defaults to 2).
	feed.push(10_000, 0)
	if got := c.Tick(); got != PhaseIdle {
		t.Fatalf("phase after one read window = %v, want idle (unconfirmed)", got)
	}
	if len(rec.policies) != 0 {
		t.Fatalf("knobs flipped before confirmation: %v", rec.policies)
	}

	// Second consecutive read window commits the phase.
	feed.push(10_000, 0)
	if got := c.Tick(); got != PhaseRead {
		t.Fatalf("phase after two read windows = %v, want read", got)
	}
	if c.Probe().PhaseChanges != 1 {
		t.Fatalf("phase changes = %d, want 1", c.Probe().PhaseChanges)
	}

	// An isolated insert window must not flap the knobs...
	flipsBefore := c.Probe().Flips
	feed.push(0, 10_000)
	if got := c.Tick(); got != PhaseRead {
		t.Fatalf("phase after one insert window = %v, want read (held)", got)
	}
	// ...and the interleaved read window resets the insert streak.
	feed.push(10_000, 0)
	c.Tick()
	feed.push(0, 10_000)
	if got := c.Tick(); got != PhaseRead {
		t.Fatalf("alternating windows flipped phase to %v", got)
	}
	if got := c.Probe().Flips; got != flipsBefore {
		t.Fatalf("alternating windows flipped knobs: %d -> %d", flipsBefore, got)
	}

	// Two consecutive insert windows commit the insert posture.
	feed.push(0, 10_000)
	if got := c.Tick(); got != PhaseInsert {
		t.Fatalf("phase after two insert windows = %v, want insert", got)
	}
	last := func(b []bool) bool { return b[len(b)-1] }
	if !last(rec.asyncs) {
		t.Error("insert posture did not route retrains async")
	}
	if rec.thresholds[len(rec.thresholds)-1] != 8192 {
		t.Errorf("insert threshold = %d, want 8192", rec.thresholds[len(rec.thresholds)-1])
	}
	if last(rec.caches) {
		t.Error("insert posture left the cache on")
	}
}

func TestControllerScanPhaseDeepensScanBatch(t *testing.T) {
	feed := &fakeFeed{}
	rec := &flipRecorder{}
	c := newTestController(feed, rec, nil)
	c.Tick() // prime

	// Two scan-dominated windows commit PhaseScan, which must deepen
	// the store's cursor batch.
	feed.pushScans(10_000)
	c.Tick()
	feed.pushScans(10_000)
	if got := c.Tick(); got != PhaseScan {
		t.Fatalf("phase after two scan windows = %v, want scan", got)
	}
	if n := len(rec.scanBatch); n == 0 || rec.scanBatch[n-1] != 1024 {
		t.Fatalf("scan posture batch knob = %v, want trailing 1024", rec.scanBatch)
	}

	// Returning to point reads must restore the default (<= 0).
	feed.push(10_000, 0)
	c.Tick()
	feed.push(10_000, 0)
	if got := c.Tick(); got != PhaseRead {
		t.Fatalf("phase after two read windows = %v, want read", got)
	}
	if n := len(rec.scanBatch); rec.scanBatch[n-1] > 0 {
		t.Fatalf("read posture left scan batch at %d, want default (<= 0)", rec.scanBatch[n-1])
	}
}

func TestControllerIdleHoldsKnobs(t *testing.T) {
	feed := &fakeFeed{}
	rec := &flipRecorder{}
	c := newTestController(feed, rec, nil)
	c.Tick()
	feed.push(10_000, 0)
	c.Tick()
	feed.push(10_000, 0)
	c.Tick() // read committed
	flips := c.Probe().Flips

	// Windows below MinOps are idle: applied phase and knobs hold.
	for i := 0; i < 5; i++ {
		feed.push(10, 0)
		if got := c.Tick(); got != PhaseRead {
			t.Fatalf("idle window %d moved phase to %v", i, got)
		}
	}
	if got := c.Probe().Flips; got != flips {
		t.Fatalf("idle windows flipped knobs: %d -> %d", flips, got)
	}
	// After idleness, a single active window must re-confirm from
	// scratch even if it classifies like the applied phase's rival.
	feed.push(0, 10_000)
	if got := c.Tick(); got != PhaseRead {
		t.Fatalf("post-idle burst committed immediately: %v", got)
	}
	feed.push(0, 10_000)
	if got := c.Tick(); got != PhaseInsert {
		t.Fatalf("confirmed post-idle burst did not commit: %v", got)
	}
}

func TestControllerSkewPhasePromotes(t *testing.T) {
	feed := &fakeFeed{}
	rec := &flipRecorder{}
	hot := NewHotKeys(64)
	c := newTestController(feed, rec, hot)
	c.Tick()

	// Make the sketch skewed: one key carries everything.
	for i := 0; i < 100_000; i++ {
		hot.Observe(777)
	}
	feed.push(10_000, 0)
	c.Tick()
	feed.push(10_000, 0)
	if got := c.Tick(); got != PhaseSkew {
		t.Fatalf("phase under zipf sketch = %v, want skew", got)
	}
	if len(rec.caches) == 0 || !rec.caches[len(rec.caches)-1] {
		t.Fatal("skew posture did not enable the cache")
	}
	if rec.promotes == 0 {
		t.Fatal("skew posture never promoted hot keys")
	}
	// Skew ticks keep promoting (the hot set drifts).
	n := rec.promotes
	feed.push(10_000, 0)
	c.Tick()
	if rec.promotes <= n {
		t.Fatal("established skew phase stopped promoting")
	}

	sn := c.Probe()
	if sn.Phase != "skew" || sn.SkewShare < 0.9 {
		t.Fatalf("probe = %+v, want skew phase with ~1.0 share", sn)
	}
}

func TestControllerNilKnobsSkipped(t *testing.T) {
	feed := &fakeFeed{}
	c := NewController(Config{
		Snapshot: feed.snapshot,
	})
	c.Tick()
	feed.push(10_000, 0)
	c.Tick()
	feed.push(0, 10_000)
	c.Tick()
	feed.push(0, 10_000)
	c.Tick() // flipping phases with every knob nil must not panic
	if c.Phase() != PhaseInsert {
		t.Fatalf("phase = %v, want insert", c.Phase())
	}
	if c.Probe().Flips != 0 {
		t.Fatalf("nil knobs counted flips: %d", c.Probe().Flips)
	}
}

func TestControllerStartStop(t *testing.T) {
	feed := &fakeFeed{}
	rec := &flipRecorder{}
	c := newTestController(feed, rec, nil)
	feed.push(10_000, 0)
	c.Start(time.Millisecond)
	defer c.Stop()
	// Wait for the phase, not for a tick count: a ticker that fires
	// twice between two pushes sees an idle window, which confirms
	// nothing, so three ticks do not guarantee two read windows in a row.
	deadline := time.After(2 * time.Second)
	for c.Phase() != PhaseRead {
		feed.push(10_000, 0)
		select {
		case <-deadline:
			t.Fatalf("phase after %d ticks = %v, want read", c.Probe().Ticks, c.Phase())
		case <-time.After(time.Millisecond):
		}
	}
	c.Stop() // idempotent with the deferred Stop
}
