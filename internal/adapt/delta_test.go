package adapt

import (
	"testing"

	"learnedpieces/internal/search"
	"learnedpieces/internal/telemetry"
)

// snap builds a synthetic telemetry snapshot with the op counters the
// delta math consumes.
func snap(gets, puts, deletes, scans, batches, batchKeys int64) telemetry.Snapshot {
	var s telemetry.Snapshot
	s.Store.Get.Ops = gets
	s.Store.Put.Ops = puts
	s.Store.Delete.Ops = deletes
	s.Store.Scan.Ops = scans
	s.Store.MultiGet.Ops = batches
	s.Store.MultiGetKeys = batchKeys
	return s
}

func TestComputeDeltaDiffsWindows(t *testing.T) {
	prev := snap(1000, 200, 50, 10, 5, 40)
	prev.Retrain.Submitted = 3
	prev.Retrain.ForegroundNs = 1e6
	prev.Epoch.ReadAttempts = 1000
	prev.Epoch.ReadRetries = 10
	prev.Search = []search.KernelStats{
		{Kernel: "binary", Searches: 100, Probes: 800},
	}

	cur := snap(1600, 500, 70, 30, 25, 200)
	cur.Retrain.Submitted = 9
	cur.Retrain.QueueDepth = 4
	cur.Retrain.ForegroundNs = 5e6
	cur.Epoch.ReadAttempts = 2000
	cur.Epoch.ReadRetries = 60
	cur.Search = []search.KernelStats{
		{Kernel: "binary", Searches: 300, Probes: 2400},
	}

	d := ComputeDelta(prev, cur, 0.55)
	want := []struct {
		name string
		got  int64
		want int64
	}{
		{"gets", d.Gets, 600},
		{"puts", d.Puts, 300},
		{"deletes", d.Deletes, 20},
		{"scans", d.Scans, 20},
		{"batches", d.Batches, 20},
		{"getKeys", d.GetKeys, 760}, // 600 point gets + 160 batch keys
		{"writeOps", d.WriteOps, 320},
		{"retrainSubmitted", d.RetrainSubmitted, 6},
		{"retrainQueue", d.RetrainQueue, 4}, // gauge, not differenced
		{"retrainForegroundNs", d.RetrainForegroundNs, 4e6},
		{"ops", d.Ops(), 960},
	}
	for _, w := range want {
		if w.got != w.want {
			t.Errorf("%s = %d, want %d", w.name, w.got, w.want)
		}
	}
	// 200 searches, 1600 probes in the window.
	if d.ProbesPerSearch != 8 {
		t.Errorf("ProbesPerSearch = %v, want 8", d.ProbesPerSearch)
	}
	// 1000 attempts, 50 retries in the window.
	if d.EpochRetryRate != 0.05 {
		t.Errorf("EpochRetryRate = %v, want 0.05", d.EpochRetryRate)
	}
	if d.SkewShare != 0.55 {
		t.Errorf("SkewShare = %v, want 0.55", d.SkewShare)
	}
}

func TestComputeDeltaZeroPrev(t *testing.T) {
	cur := snap(100, 0, 0, 0, 0, 0)
	d := ComputeDelta(telemetry.Snapshot{}, cur, 0)
	if d.Gets != 100 || d.Ops() != 100 {
		t.Fatalf("zero-prev delta: gets=%d ops=%d, want 100/100", d.Gets, d.Ops())
	}
	if d.ProbesPerSearch != 0 || d.EpochRetryRate != 0 {
		t.Fatalf("zero-prev rates should be 0, got probes=%v retries=%v",
			d.ProbesPerSearch, d.EpochRetryRate)
	}
}

// TestClassifyBoundaries walks every classification boundary of the
// default thresholds: MinOps 256, WriteFrac 0.5, ScanFrac 0.2,
// SkewShare 0.4, and the precedence order insert > scan > skew > read.
func TestClassifyBoundaries(t *testing.T) {
	cases := []struct {
		name string
		d    Delta
		want Phase
	}{
		{"empty window", Delta{}, PhaseIdle},
		{"just under MinOps", Delta{Gets: 255}, PhaseIdle},
		{"at MinOps", Delta{Gets: 256}, PhaseRead},
		{"writes just under half", Delta{Gets: 501, WriteOps: 499, Puts: 499}, PhaseRead},
		{"writes at half", Delta{Gets: 500, WriteOps: 500, Puts: 500}, PhaseInsert},
		{"writes dominate", Delta{Gets: 10, WriteOps: 990, Puts: 990}, PhaseInsert},
		{"deletes count as writes", Delta{Gets: 100, WriteOps: 400, Deletes: 400}, PhaseInsert},
		{"scans just under", Delta{Gets: 801, Scans: 199}, PhaseRead},
		{"scans at boundary", Delta{Gets: 800, Scans: 200}, PhaseScan},
		{"skew just under", Delta{Gets: 1000, SkewShare: 0.399}, PhaseRead},
		{"skew at boundary", Delta{Gets: 1000, SkewShare: 0.4}, PhaseSkew},
		{"uniform reads", Delta{Gets: 1000}, PhaseRead},
		{"batches alone qualify", Delta{Batches: 300}, PhaseRead},
		// Precedence: a window can satisfy several boundaries at once;
		// writes win over scans, scans over skew.
		{"insert beats scan", Delta{WriteOps: 500, Puts: 500, Scans: 500}, PhaseInsert},
		{"insert beats skew", Delta{Gets: 500, WriteOps: 500, Puts: 500, SkewShare: 0.9}, PhaseInsert},
		{"scan beats skew", Delta{Gets: 700, Scans: 300, SkewShare: 0.9}, PhaseScan},
		{"idle beats everything", Delta{Gets: 100, SkewShare: 0.9}, PhaseIdle},
	}
	for _, c := range cases {
		if got := c.d.Classify(Thresholds{}); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClassifyCustomThresholds(t *testing.T) {
	th := Thresholds{MinOps: 10, WriteFrac: 0.9, ScanFrac: 0.5, SkewShare: 0.2, SkewTopK: 4}
	if got := (Delta{Gets: 20, WriteOps: 16, Puts: 16}).Classify(th); got != PhaseRead {
		t.Errorf("80%% writes under 0.9 threshold = %v, want read", got)
	}
	if got := (Delta{Gets: 20, SkewShare: 0.25}).Classify(th); got != PhaseSkew {
		t.Errorf("0.25 skew over 0.2 threshold = %v, want skew", got)
	}
}

func TestPhaseString(t *testing.T) {
	for p, want := range map[Phase]string{
		PhaseIdle: "idle", PhaseRead: "read", PhaseInsert: "insert",
		PhaseScan: "scan", PhaseSkew: "skew", Phase(99): "idle",
	} {
		if got := p.String(); got != want {
			t.Errorf("Phase(%d).String() = %q, want %q", p, got, want)
		}
	}
}
