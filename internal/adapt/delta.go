// delta.go is the decision plane's arithmetic: pure functions from two
// telemetry snapshots to a workload classification, kept free of
// goroutines and clocks so the phase boundaries are table-testable.
package adapt

import "learnedpieces/internal/telemetry"

// Phase is the controller's workload classification.
type Phase uint8

const (
	// PhaseIdle: too few operations this window to classify; the
	// controller holds every knob where it is.
	PhaseIdle Phase = iota
	// PhaseRead: point reads dominate, no significant skew.
	PhaseRead
	// PhaseInsert: writes dominate.
	PhaseInsert
	// PhaseScan: range scans are a significant share of operations.
	PhaseScan
	// PhaseSkew: reads dominate and the frequency sketch reports a
	// zipf-like concentration on few keys.
	PhaseSkew
)

var phaseNames = [...]string{"idle", "read", "insert", "scan", "skew"}

// String returns the snapshot-spelling of the phase.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "idle"
}

// Thresholds are the classification boundaries. The zero value is
// replaced by Defaults — they are a struct so the table tests can walk
// each boundary explicitly and the controller can be tuned per
// deployment.
type Thresholds struct {
	// MinOps is the window-op floor below which the phase is Idle.
	MinOps int64
	// WriteFrac: writes/(all ops) at or above this is PhaseInsert.
	WriteFrac float64
	// ScanFrac: scans/(all ops) at or above this is PhaseScan.
	ScanFrac float64
	// SkewShare: sketch top-k share at or above this (in a read-heavy
	// window) is PhaseSkew.
	SkewShare float64
	// SkewTopK is the k for the sketch's top-k share.
	SkewTopK int
}

// DefaultThresholds returns the boundaries the experiments use.
func DefaultThresholds() Thresholds {
	return Thresholds{
		MinOps:    256,
		WriteFrac: 0.5,
		ScanFrac:  0.2,
		SkewShare: 0.4,
		SkewTopK:  16,
	}
}

func (t *Thresholds) normalize() {
	d := DefaultThresholds()
	if t.MinOps <= 0 {
		t.MinOps = d.MinOps
	}
	if t.WriteFrac <= 0 {
		t.WriteFrac = d.WriteFrac
	}
	if t.ScanFrac <= 0 {
		t.ScanFrac = d.ScanFrac
	}
	if t.SkewShare <= 0 {
		t.SkewShare = d.SkewShare
	}
	if t.SkewTopK <= 0 {
		t.SkewTopK = d.SkewTopK
	}
}

// Delta is what changed between two telemetry snapshots — the
// controller's entire view of one sampling window, plus the
// instantaneous gauges that matter for knob decisions.
type Delta struct {
	// Window op counts (cur minus prev).
	Gets     int64
	Puts     int64
	Deletes  int64
	Scans    int64
	Batches  int64 // MultiGet batches
	GetKeys  int64 // point gets + keys carried by MultiGet batches
	WriteOps int64 // Puts + Deletes

	// RetrainQueue is the current (not differenced) retrain-pool depth.
	RetrainQueue int64
	// RetrainSubmitted / RetrainForegroundNs are window deltas.
	RetrainSubmitted    int64
	RetrainForegroundNs int64

	// ProbesPerSearch is the window's mean last-mile probe count —
	// the search-kernel efficiency signal.
	ProbesPerSearch float64

	// EpochRetryRate is the window's optimistic-read retry fraction.
	EpochRetryRate float64

	// SkewShare is the frequency sketch's top-k share for this window
	// (0 without a sketch).
	SkewShare float64
}

// Ops returns the total operations the window classified over.
func (d Delta) Ops() int64 {
	return d.Gets + d.Batches + d.WriteOps + d.Scans
}

// ComputeDelta diffs two snapshots into one window's view; skew is the
// sketch's current top-k share (pass 0 without a sketch). prev may be
// the zero Snapshot (first tick).
func ComputeDelta(prev, cur telemetry.Snapshot, skew float64) Delta {
	d := Delta{
		Gets:      cur.Store.Get.Ops - prev.Store.Get.Ops,
		Puts:      cur.Store.Put.Ops - prev.Store.Put.Ops,
		Deletes:   cur.Store.Delete.Ops - prev.Store.Delete.Ops,
		Scans:     cur.Store.Scan.Ops - prev.Store.Scan.Ops,
		Batches:   cur.Store.MultiGet.Ops - prev.Store.MultiGet.Ops,
		GetKeys:   (cur.Store.Get.Ops + cur.Store.MultiGetKeys) - (prev.Store.Get.Ops + prev.Store.MultiGetKeys),
		SkewShare: skew,

		RetrainQueue:        cur.Retrain.QueueDepth,
		RetrainSubmitted:    cur.Retrain.Submitted - prev.Retrain.Submitted,
		RetrainForegroundNs: cur.Retrain.ForegroundNs - prev.Retrain.ForegroundNs,
	}
	d.WriteOps = d.Puts + d.Deletes

	var searches, probes int64
	for _, k := range cur.Search {
		searches += k.Searches
		probes += k.Probes
	}
	for _, k := range prev.Search {
		searches -= k.Searches
		probes -= k.Probes
	}
	if searches > 0 {
		d.ProbesPerSearch = float64(probes) / float64(searches)
	}

	attempts := cur.Epoch.ReadAttempts - prev.Epoch.ReadAttempts
	retries := cur.Epoch.ReadRetries - prev.Epoch.ReadRetries
	if attempts > 0 {
		d.EpochRetryRate = float64(retries) / float64(attempts)
	}
	return d
}

// Classify maps the window delta to a phase. Boundary order is
// deliberate: writes are checked before scans and scans before skew, so
// a window that is 60% inserts and 40% zipf reads tunes for the inserts
// (the write path is the one with a tail to lose).
func (d Delta) Classify(t Thresholds) Phase {
	t.normalize()
	ops := d.Ops()
	if ops < t.MinOps {
		return PhaseIdle
	}
	if float64(d.WriteOps)/float64(ops) >= t.WriteFrac {
		return PhaseInsert
	}
	if float64(d.Scans)/float64(ops) >= t.ScanFrac {
		return PhaseScan
	}
	if d.SkewShare >= t.SkewShare {
		return PhaseSkew
	}
	return PhaseRead
}
