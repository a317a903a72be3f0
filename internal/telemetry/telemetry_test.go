package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"learnedpieces/internal/index"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Load() != 42 {
		t.Fatalf("counter = %d", c.Load())
	}
	var g Gauge
	g.Add(10)
	g.Add(-3)
	if g.Load() != 7 {
		t.Fatalf("gauge = %d", g.Load())
	}
}

func TestRecorderCountsAndSamples(t *testing.T) {
	r := NewRecorder(4, 8)
	for i := 0; i < 800; i++ {
		sp := r.Start(uint64(i))
		sp.Done()
	}
	if r.Ops() != 800 {
		t.Fatalf("ops = %d, want 800", r.Ops())
	}
	sampled := r.Merged().Count()
	if sampled != 800/8 {
		t.Fatalf("sampled = %d, want %d", sampled, 800/8)
	}
	// sample<=1 records everything.
	full := NewRecorder(1, 1)
	full.Start(0).Done()
	full.Start(1).Done()
	if full.Ops() != 2 || full.Merged().Count() != 2 {
		t.Fatalf("full recorder ops=%d sampled=%d", full.Ops(), full.Merged().Count())
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Start(1).Done()
	if r.Ops() != 0 || r.Merged().Count() != 0 {
		t.Fatal("nil recorder must be inert")
	}
}

func TestNilStoreMetricsIsInert(t *testing.T) {
	var m *StoreMetrics
	m.StartPut(1).Done()
	m.StartGet(1).Done()
	m.StartDelete(1).Done()
	m.StartScan(1).Done()
	m.StartMultiGet(5).Done()
	m.GetMiss()
	m.PageRollover()
	m.Tombstone()
	m.LiveDelta(1)
	var s *Sink
	if s.StoreSink() != nil {
		t.Fatal("nil sink must hand out nil metrics")
	}
	s.SetProbe(nil)
	s.SetPMemProbe(nil)
	if got := s.Snapshot(); got.Store.Put.Ops != 0 {
		t.Fatal("nil sink snapshot must be zero")
	}
}

// TestRecorderConcurrent is the -race test of the sharded hot path:
// writers on every stripe with concurrent merges and reads.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(8, 4)
	const workers = 8
	const perWorker = 5000
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // concurrent reader
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Merged()
				r.Ops()
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < perWorker; i++ {
				sp := r.Start(uint64(w))
				sp.Done()
				r.Start(uint64(w)*31 + uint64(i)).Done()
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if got := r.Ops(); got != int64(workers*perWorker*2) {
		t.Fatalf("ops = %d, want %d", got, workers*perWorker*2)
	}
}

// TestSinkConcurrent drives store metrics, index observations and
// snapshots from many goroutines under -race.
func TestSinkConcurrent(t *testing.T) {
	s := New()
	var lineReads atomic.Int64
	s.SetPMemProbe(func() PMemSnapshot { return PMemSnapshot{LineReads: lineReads.Load()} })
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := s.StoreSink()
			for i := 0; i < 2000; i++ {
				m.StartPut(uint64(i)).Done()
				sp := m.StartGet(uint64(i))
				sp.Done()
				m.GetMiss()
				m.LiveDelta(1)
				lineReads.Add(2)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.SetProbe(fakeProbe)
			_ = s.Snapshot()
		}
	}()
	wg.Wait()
	snap := s.Snapshot()
	if snap.Store.Put.Ops != 8000 || snap.Store.Get.Ops != 8000 {
		t.Fatalf("put=%d get=%d, want 8000 each", snap.Store.Put.Ops, snap.Store.Get.Ops)
	}
	if snap.Store.GetMisses != 8000 || snap.Store.LiveKeys != 8000 {
		t.Fatalf("misses=%d live=%d", snap.Store.GetMisses, snap.Store.LiveKeys)
	}
	if snap.PMem.LineReads != 16000 {
		t.Fatalf("line reads = %d", snap.PMem.LineReads)
	}
}

type fakeIdx struct{}

func (fakeIdx) Name() string                 { return "fake" }
func (fakeIdx) Get(uint64) (uint64, bool)    { return 0, false }
func (fakeIdx) Insert(k, v uint64) error     { return nil }
func (fakeIdx) Len() int                     { return 7 }
func (fakeIdx) AvgDepth() float64            { return 1.5 }
func (fakeIdx) RetrainStats() (int64, int64) { return 2, 300 }
func (fakeIdx) Sizes() index.Sizes           { return index.Sizes{Structure: 8, Keys: 56} }
func (fakeIdx) BulkLoad(k, v []uint64) error { return nil }

func (fakeIdx) InsertReplace(k, v uint64) (bool, error) { return false, nil }

func fakeProbe() IndexStats { return CollectIndexStats(fakeIdx{}) }

// TestSnapshotRoundTrip: Snapshot -> JSON -> Snapshot is lossless.
func TestSnapshotRoundTrip(t *testing.T) {
	s := New()
	m := s.StoreSink()
	for i := 0; i < 500; i++ {
		m.StartPut(uint64(i)).Done()
		m.StartGet(uint64(i)).Done()
	}
	m.StartMultiGet(32).Done()
	m.Tombstone()
	m.PageRollover()
	m.LiveDelta(499)
	m.Recovery.Observe(12 * time.Millisecond)
	m.Compaction.Observe(3 * time.Millisecond)
	m.BulkLoad.Observe(5 * time.Millisecond)
	s.SetPMemProbe(func() PMemSnapshot {
		return PMemSnapshot{Reads: 10, LineWrites: 20, WriteStallNs: 12345}
	})
	s.SetProbe(fakeProbe)

	snap := s.Snapshot()
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, snap)
	}
	// The JSON must be a flat, stable schema: spot-check a few keys.
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"taken_unix_ns", "store", "pmem", "indexes"} {
		if _, ok := raw[key]; !ok {
			t.Fatalf("snapshot JSON missing %q", key)
		}
	}
}

func TestPMemProbeRetiresIntoTotals(t *testing.T) {
	s := New()
	s.SetPMemProbe(func() PMemSnapshot { return PMemSnapshot{Reads: 5, LineReads: 7} })
	// Replacing the probe folds the retiring region's final counters in.
	s.SetPMemProbe(func() PMemSnapshot { return PMemSnapshot{Reads: 2, WriteStallNs: 9} })
	snap := s.Snapshot()
	if snap.PMem.Reads != 7 || snap.PMem.LineReads != 7 || snap.PMem.WriteStallNs != 9 {
		t.Fatalf("pmem totals = %+v, want retired+live", snap.PMem)
	}
}

func TestProbeRetiresIntoIndexMap(t *testing.T) {
	s := New()
	s.SetProbe(func() IndexStats { return IndexStats{Name: "old", Len: 1} })
	// Installing a new probe folds the old store's final stats in.
	s.SetProbe(func() IndexStats { return IndexStats{Name: "new", Len: 2} })
	snap := s.Snapshot()
	if len(snap.Indexes) != 2 {
		t.Fatalf("indexes = %+v, want old+new", snap.Indexes)
	}
	if snap.Indexes[0].Name != "new" || snap.Indexes[1].Name != "old" {
		t.Fatalf("unexpected order/content: %+v", snap.Indexes)
	}
}

func TestRetrainProbeRetiresIntoTotals(t *testing.T) {
	s := New()
	s.SetRetrainProbe(func() RetrainSnapshot {
		return RetrainSnapshot{Workers: 4, Submitted: 10, Coalesced: 2, Executed: 8, Inline: 1, BackgroundNs: 50}
	})
	// Replacing the probe folds the retiring pool's counters in; the
	// worker count is the live pool's.
	s.SetRetrainProbe(func() RetrainSnapshot {
		return RetrainSnapshot{Workers: 2, Submitted: 3, Executed: 3, ForegroundNs: 7}
	})
	rt := s.Snapshot().Retrain
	want := RetrainSnapshot{Workers: 2, Submitted: 13, Coalesced: 2, Executed: 11, Inline: 1, BackgroundNs: 50, ForegroundNs: 7}
	if rt != want {
		t.Fatalf("retrain totals = %+v, want %+v", rt, want)
	}
}

// TestRetiredProbeReadOutsideLock: a setter reads the retiring probe
// after releasing the sink's lock, so a probe that itself takes a
// snapshot of the sink (as a store's probe may while it closes) does not
// deadlock the setter.
func TestRetiredProbeReadOutsideLock(t *testing.T) {
	s := New()
	s.SetPMemProbe(func() PMemSnapshot {
		_ = s.Snapshot()
		return PMemSnapshot{Reads: 3}
	})
	done := make(chan struct{})
	go func() {
		s.SetPMemProbe(func() PMemSnapshot { return PMemSnapshot{Reads: 1} })
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("SetPMemProbe held the sink's lock while reading the retired probe")
	}
	if got := s.Snapshot().PMem.Reads; got != 4 {
		t.Fatalf("pmem reads = %d, want 3 retired + 1 live", got)
	}
}

func TestServerProbeRetiresIntoTotals(t *testing.T) {
	s := New()
	s.SetServerProbe(func() ServerSnapshot {
		return ServerSnapshot{ConnsOpen: 3, ConnsTotal: 5, InFlight: 2, Accepted: 100,
			Rejected: 4, CoalesceBatches: 10, CoalescedGets: 80, BatchP50: 8}
	})
	// Replacing the probe folds the retiring server's lifetime totals in
	// — but not its point-in-time gauges (open conns, in-flight).
	s.SetServerProbe(func() ServerSnapshot {
		return ServerSnapshot{ConnsOpen: 1, ConnsTotal: 1, Accepted: 10}
	})
	snap := s.Snapshot()
	sv := snap.Server
	if sv.ConnsTotal != 6 || sv.Accepted != 110 || sv.Rejected != 4 {
		t.Fatalf("server totals = %+v, want retired+live", sv)
	}
	if sv.ConnsOpen != 1 || sv.InFlight != 0 {
		t.Fatalf("retired gauges leaked into totals: %+v", sv)
	}
	// The retired server's batch distribution survives while the live one
	// hasn't flushed a batch yet.
	if sv.BatchP50 != 8 || sv.CoalesceBatches != 10 {
		t.Fatalf("batch shape lost on fold: %+v", sv)
	}
	// Server section renders and round-trips.
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Server != sv {
		t.Fatalf("server section round trip: got %+v want %+v", back.Server, sv)
	}
	var text bytes.Buffer
	snap.WriteText(&text)
	if !strings.Contains(text.String(), "network server") {
		t.Fatal("text render missing network server table")
	}
}

func TestWriteText(t *testing.T) {
	s := New()
	m := s.StoreSink()
	for i := 0; i < 100; i++ {
		m.StartGet(uint64(i)).Done()
	}
	s.SetProbe(fakeProbe)
	var buf bytes.Buffer
	s.Snapshot().WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"store operations", "get", "simulated pmem", "indexes", "fake"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}

// TestServe binds an ephemeral loopback port, serves one snapshot
// request from it and stops: after Close the port refuses connections.
func TestServe(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", New())
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + srv.Addr + "/telemetry"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /telemetry: status %d, %v", resp.StatusCode, err)
	}
	if err := json.Unmarshal(body, new(Snapshot)); err != nil {
		t.Fatalf("/telemetry not a snapshot: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	http.DefaultClient.CloseIdleConnections()
	if resp, err := http.Get(url); err == nil {
		resp.Body.Close()
		t.Fatal("GET after Close succeeded")
	}
}

func TestHTTPHandler(t *testing.T) {
	s := New()
	s.StoreSink().StartGet(1).Done()
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ct := get("/telemetry")
	if ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	if err := json.Unmarshal([]byte(body), new(Snapshot)); err != nil {
		t.Fatalf("/telemetry not a snapshot: %v", err)
	}
	body, _ = get("/telemetry/table")
	if !strings.Contains(body, "store operations") {
		t.Fatalf("/telemetry/table missing table: %s", body)
	}
	// /debug/vars serves the runtime's own vars; /telemetry is the one
	// view of the sink.
	body, _ = get("/debug/vars")
	if !strings.Contains(body, `"memstats"`) || strings.Contains(body, `"telemetry"`) {
		t.Fatalf("/debug/vars should hold the runtime's vars and no sink copy: %.200s", body)
	}
	body, _ = get("/debug/pprof/cmdline")
	if body == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

// TestHandlersServeOwnSinks: two handlers in one process each serve
// their own sink, at /telemetry and in the table, and neither publishes
// a sink under the process-global /debug/vars.
func TestHandlersServeOwnSinks(t *testing.T) {
	sinks := []*Sink{New(), New()}
	for i, s := range sinks {
		for j := 0; j <= 2*i; j++ {
			s.StoreSink().StartGet(uint64(j)).Done()
		}
	}
	for i, s := range sinks {
		srv := httptest.NewServer(Handler(s))
		for _, path := range []string{"/telemetry", "/debug/vars"} {
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if path == "/debug/vars" {
				if strings.Contains(string(body), `"telemetry"`) {
					t.Fatalf("handler %d: /debug/vars holds a sink copy", i)
				}
				continue
			}
			var sn Snapshot
			if err := json.Unmarshal(body, &sn); err != nil {
				t.Fatal(err)
			}
			if want := int64(2*i + 1); sn.Store.Get.Ops != want {
				t.Fatalf("handler %d served %d gets, want its own sink's %d", i, sn.Store.Get.Ops, want)
			}
		}
		srv.Close()
	}
}

// TestPadLayout pins the cache-line pads: each pad ends on a 64-byte
// boundary and a struct ending in one is a whole number of lines, so a
// field added beside a pad fails here instead of sharing a line.
func TestPadLayout(t *testing.T) {
	var r recorderShard
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"sizeof Counter", unsafe.Sizeof(Counter{}), 64},
		{"sizeof Gauge", unsafe.Sizeof(Gauge{}), 64},
		{"offsetof recorderShard.hist", unsafe.Offsetof(r.hist), 64},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}
