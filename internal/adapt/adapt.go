// Package adapt closes the loop the paper leaves open: its core result
// is that no single recombination of the four design dimensions wins
// across workloads, so the winning configuration is workload-dependent
// — and everything this repo built so far (telemetry snapshots,
// runtime-switchable search kernels, retrain modes, batch routing)
// exists as a knob an operator sets per deployment. The adapt controller turns those static guesses into a
// sampling feedback loop: it periodically diffs telemetry snapshots,
// classifies the workload phase, and flips the live knobs without
// stopping traffic.
//
// The split is strict:
//
//   - Decision plane (this file, delta.go): a controller goroutine (or
//     an explicit Tick call from a harness) diffs snapshots, classifies
//     the phase with hysteresis, and calls the knob closures. May
//     allocate, sort, and take locks — it runs a handful of times per
//     second at most.
//   - Data plane (hotkeys.go): the frequency sketch fed from the Get
//     hot path and the shadow cache in front of the index. Atomic-only,
//     allocation-free, //pieces:hotpath-verified.
//
// Knobs are closures so this package depends only on telemetry and
// search: the store (viper), the server, and the harnesses wire their
// own methods in, and any knob left nil is simply never flipped.
package adapt

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"learnedpieces/internal/search"
	"learnedpieces/internal/telemetry"
)

// floatBits / floatFromBits shuttle a float64 through an atomic.Uint64.
func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// decayEvery is the sketch-aging cadence in ticks: estimates are halved
// every decayEvery-th window, giving the skew signal a half-life of a
// few windows — long enough that mid-rank hot keys accumulate counts
// above churn noise, short enough that a finished phase's hot set is
// forgotten within ~10 ticks.
const decayEvery = 4

// Knobs are the live switches the controller may flip. Nil fields are
// skipped. All closures must be safe to call from the controller's
// goroutine while traffic is flowing — which is exactly the contract
// the atomics work in search, retrain, rebuild, viper and server
// provides.
type Knobs struct {
	// SearchPolicy installs the process-wide last-mile kernel.
	SearchPolicy func(p search.Policy)
	// RetrainAsync routes index retraining to the background pool
	// (true) or the submitting goroutine (false).
	RetrainAsync func(on bool)
	// RetrainThreshold retunes the delta-buffer size that triggers a
	// rebuild; n <= 0 restores the configured default.
	RetrainThreshold func(n int)
	// BatchFloor sets the MultiGet batch size below which the store
	// resolves keys one at a time instead of through the batch kernel.
	BatchFloor func(n int)
	// ScanBatch sets how many index entries the store's range-scan path
	// pulls (and offset-sorts) per cursor round; n <= 0 restores the
	// configured default (see viper.Store.SetScanBatch).
	ScanBatch func(n int)
	// CacheEnable switches the hot-key shadow cache.
	CacheEnable func(on bool)
	// Promote publishes the given hot keys into the shadow cache
	// (resolving them through the index; see viper.Store.PromoteHot).
	Promote func(keys []uint64)
}

// Config configures a Controller.
type Config struct {
	// Snapshot supplies the telemetry digest the controller diffs.
	// Required.
	Snapshot func() telemetry.Snapshot
	// Hot is the sampler/cache the store was opened with; nil disables
	// skew detection (SkewShare stays 0, PhaseSkew never fires).
	Hot *HotKeys
	// Knobs are the switches to drive.
	Knobs Knobs
	// Thresholds are the classification boundaries; zero fields take
	// defaults.
	Thresholds Thresholds
	// Confirm is the hysteresis depth: a phase change is committed only
	// after this many consecutive windows classify the same. <= 0
	// picks 2 — one window of mixed traffic at a phase boundary never
	// flips knobs, two do.
	Confirm int
	// PromoteK is how many sketch candidates each skew-phase tick
	// promotes into the cache. <= 0 picks 16.
	PromoteK int
	// ReadThreshold / InsertThreshold are the rebuild triggers applied
	// in read-leaning and write-leaning phases. <= 0 picks 512 / 8192.
	ReadThreshold   int
	InsertThreshold int
}

// knobState remembers the last value the controller applied to each
// knob, so flips are counted only when a value actually changes.
type knobState struct {
	valid     bool
	policy    search.Policy
	async     bool
	threshold int
	floor     int
	scanBatch int
	cache     bool
}

// Controller is the sampling feedback loop. Tick is not safe for
// concurrent use — drive it either from Start's goroutine or from a
// single harness goroutine, never both. Probe (and therefore the
// telemetry sink) may run concurrently with Tick.
type Controller struct {
	cfg  Config
	prev telemetry.Snapshot
	last knobState

	candidate Phase
	streak    int

	applied      atomic.Uint32
	ticks        atomic.Int64
	flips        atomic.Int64
	phaseChanges atomic.Int64
	skewBits     atomic.Uint64 // math.Float64bits of the last window's skew

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewController returns a controller; it takes no action until Tick or
// Start.
func NewController(cfg Config) *Controller {
	if cfg.Snapshot == nil {
		panic("adapt: Config.Snapshot is required")
	}
	cfg.Thresholds.normalize()
	if cfg.Confirm <= 0 {
		cfg.Confirm = 2
	}
	if cfg.PromoteK <= 0 {
		cfg.PromoteK = 16
	}
	if cfg.ReadThreshold <= 0 {
		cfg.ReadThreshold = 512
	}
	if cfg.InsertThreshold <= 0 {
		cfg.InsertThreshold = 8192
	}
	c := &Controller{cfg: cfg}
	c.applied.Store(uint32(PhaseIdle))
	return c
}

// Tick runs one sampling step: snapshot, diff, classify, and — when the
// classification has held for Confirm consecutive windows — flip the
// knobs. Returns the phase currently applied. The first tick only
// primes the baseline snapshot.
func (c *Controller) Tick() Phase {
	cur := c.cfg.Snapshot()
	skew := c.cfg.Hot.SkewShare(c.cfg.Thresholds.SkewTopK)
	d := ComputeDelta(c.prev, cur, skew)
	tick := c.ticks.Add(1)
	first := tick == 1
	c.prev = cur
	c.skewBits.Store(floatBits(skew))
	if tick%decayEvery == 0 {
		// Age the sketch on a multi-window half-life rather than every
		// tick: halving per window leaves only one window's samples
		// behind the top-k ranking, which is too thin to separate the
		// mid-rank hot keys from churn noise. Four windows of history
		// still forgets a dead phase in a handful of ticks.
		c.cfg.Hot.Decay()
	}
	if first {
		// No baseline to diff against: the "window" is the whole run so
		// far, which says nothing about the current phase.
		return Phase(c.applied.Load())
	}

	ph := d.Classify(c.cfg.Thresholds)
	if ph == PhaseIdle {
		// Nothing happened; hold every knob and reset the streak so a
		// burst after idleness must re-confirm.
		c.candidate, c.streak = PhaseIdle, 0
		return Phase(c.applied.Load())
	}
	if ph == c.candidate {
		c.streak++
	} else {
		c.candidate, c.streak = ph, 1
	}
	applied := Phase(c.applied.Load())
	if c.streak >= c.cfg.Confirm && ph != applied {
		c.apply(ph, d)
		c.applied.Store(uint32(ph))
		c.phaseChanges.Add(1)
		applied = ph
	}
	if applied == PhaseSkew && c.cfg.Knobs.Promote != nil {
		// Re-promote every tick while skewed: the hot set drifts, and
		// promotion is also how post-write invalidations heal.
		if keys := c.cfg.Hot.TopKeys(c.cfg.PromoteK); len(keys) > 0 {
			c.cfg.Knobs.Promote(keys)
		}
	}
	return applied
}

// apply moves every knob to the target phase's setting, counting one
// flip per knob whose value actually changed.
func (c *Controller) apply(ph Phase, d Delta) {
	want := knobState{valid: true}
	switch ph {
	case PhaseInsert:
		// Writes dominate: rebuilds must leave the Put tail (async pool,
		// large buffer), and read-side machinery is pure overhead.
		want.policy = search.PolicyAuto
		want.async = true
		want.threshold = c.cfg.InsertThreshold
		want.floor = 0
		want.cache = false
	case PhaseScan:
		// Range scans stream through the sorted space; the point cache
		// only helps point reads. Deepen the cursor batch:
		// when scans dominate, longer offset-sorted rounds amortise the
		// per-round epoch pin and sort further with no point-read tail
		// latency to protect.
		want.policy = search.PolicyAuto
		want.async = false
		want.threshold = c.cfg.ReadThreshold
		want.floor = 0
		want.scanBatch = 1024
		want.cache = false
	case PhaseSkew:
		// Reads concentrate on few keys: shadow cache in front of the
		// index.
		// The rebuild threshold stays at the insert size: a skewed phase
		// carries an update tail that lands on the *hot* keys, so a small
		// buffer rebuilds continuously for reads the cache already
		// absorbs — measured slower than letting the delta ride.
		want.policy = pickReadPolicy(d)
		want.async = true
		want.threshold = c.cfg.InsertThreshold
		want.floor = 8
		want.cache = true
	default: // PhaseRead
		// Uniform reads: flush delta buffers early (small threshold,
		// inline retrain — there is no write tail to protect and no
		// background CPU stolen from readers), route only real batches
		// to the batch kernel.
		want.policy = pickReadPolicy(d)
		want.async = false
		want.threshold = c.cfg.ReadThreshold
		want.floor = 8
		want.cache = false
	}

	k, last := c.cfg.Knobs, c.last
	if k.SearchPolicy != nil && (!last.valid || want.policy != last.policy) {
		k.SearchPolicy(want.policy)
		c.flips.Add(1)
	}
	if k.RetrainAsync != nil && (!last.valid || want.async != last.async) {
		k.RetrainAsync(want.async)
		c.flips.Add(1)
	}
	if k.RetrainThreshold != nil && (!last.valid || want.threshold != last.threshold) {
		k.RetrainThreshold(want.threshold)
		c.flips.Add(1)
	}
	if k.BatchFloor != nil && (!last.valid || want.floor != last.floor) {
		k.BatchFloor(want.floor)
		c.flips.Add(1)
	}
	if k.ScanBatch != nil && (!last.valid || want.scanBatch != last.scanBatch) {
		k.ScanBatch(want.scanBatch)
		c.flips.Add(1)
	}
	if k.CacheEnable != nil && (!last.valid || want.cache != last.cache) {
		k.CacheEnable(want.cache)
		c.flips.Add(1)
	}
	c.last = want
}

// pickReadPolicy chooses the last-mile kernel for read-leaning phases
// from the window's observed probe counts. Very long searches mean wide
// error windows, where the interpolated kernel's guided probe beats
// log2(window) halving steps; at moderate depths the branchless kernel
// wins (no mispredicts, and the fixed halving count is cheap); tiny
// windows stay on auto, whose linear-scan cutoff is already optimal
// there. Evaluated only at phase commits, so a noisy window cannot flap
// the kernel.
func pickReadPolicy(d Delta) search.Policy {
	switch {
	case d.ProbesPerSearch >= 32:
		return search.PolicyInterp
	case d.ProbesPerSearch >= 4:
		return search.PolicyBranchless
	}
	return search.PolicyAuto
}

// Phase reports the currently applied phase. Safe concurrently.
func (c *Controller) Phase() Phase { return Phase(c.applied.Load()) }

// Probe returns the controller's telemetry digest; install it with
// telemetry.Sink.SetAdaptProbe. Safe concurrently with Tick.
func (c *Controller) Probe() telemetry.AdaptSnapshot {
	cs := c.cfg.Hot.Stats()
	sn := telemetry.AdaptSnapshot{
		Phase:         Phase(c.applied.Load()).String(),
		Ticks:         c.ticks.Load(),
		Flips:         c.flips.Load(),
		PhaseChanges:  c.phaseChanges.Load(),
		SkewShare:     floatFromBits(c.skewBits.Load()),
		CacheEnabled:  cs.Enabled,
		CacheHits:     cs.Hits,
		CacheMisses:   cs.Misses,
		Promotions:    cs.Promotions,
		Refreshes:     cs.Refreshes,
		Invalidations: cs.Invalidations,
	}
	if lookups := cs.Hits + cs.Misses; lookups > 0 {
		sn.CacheHitRate = float64(cs.Hits) / float64(lookups)
	}
	return sn
}

// Start launches the controller goroutine, ticking every interval.
func (c *Controller) Start(interval time.Duration) {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	c.stop = make(chan struct{})
	c.wg.Add(1)
	go c.loop(interval)
}

func (c *Controller) loop(interval time.Duration) {
	defer c.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.Tick()
		}
	}
}

// Stop halts the controller goroutine and waits for it. Idempotent only
// across Start calls (call once per Start).
func (c *Controller) Stop() {
	if c.stop == nil {
		return
	}
	close(c.stop)
	c.wg.Wait()
	c.stop = nil
}
