package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"time"

	"learnedpieces/internal/epoch"
	"learnedpieces/internal/search"
)

// OpSnapshot is the digest of one operation class: total ops, how many
// were latency-sampled, and the sampled distribution.
type OpSnapshot struct {
	Ops     int64   `json:"ops"`
	Sampled int64   `json:"sampled"`
	MeanNs  float64 `json:"mean_ns"`
	P50Ns   int64   `json:"p50_ns"`
	P99Ns   int64   `json:"p99_ns"`
	P999Ns  int64   `json:"p999_ns"`
	MaxNs   int64   `json:"max_ns"`
}

// PhaseSnapshot is the digest of a rare heavyweight phase.
type PhaseSnapshot struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
}

// StoreSnapshot is the store section of a Snapshot.
type StoreSnapshot struct {
	Put      OpSnapshot `json:"put"`
	Get      OpSnapshot `json:"get"`
	Delete   OpSnapshot `json:"delete"`
	Scan     OpSnapshot `json:"scan"`
	MultiGet OpSnapshot `json:"multiget"`

	GetMisses     int64 `json:"get_misses"`
	MultiGetKeys  int64 `json:"multiget_keys"`
	PageRollovers int64 `json:"page_rollovers"`
	Tombstones    int64 `json:"tombstones"`
	LiveKeys      int64 `json:"live_keys"`

	// Batched range-scan shape (zero when no batched scan ever ran).
	ScanBatches   int64 `json:"scan_batches"`
	ScanEntries   int64 `json:"scan_entries"`
	ScanPresorted int64 `json:"scan_presorted"`
	ScanPinYields int64 `json:"scan_pin_yields"`
	ScanReseeks   int64 `json:"scan_reseeks"`

	Recovery   PhaseSnapshot `json:"recovery"`
	Compaction PhaseSnapshot `json:"compaction"`
	BulkLoad   PhaseSnapshot `json:"bulk_load"`
}

// PMemSnapshot is the simulated device section of a Snapshot: access and
// 256-byte line counts plus the injected (stall) nanoseconds, which is
// what makes the Optane model's cost visible next to the index cost —
// the paper's "is the bottleneck the NVM or the index?" question, live.
// It doubles as the value type device probes return to the sink.
type PMemSnapshot struct {
	Reads   int64 `json:"reads"`
	Writes  int64 `json:"writes"`
	Flushes int64 `json:"flushes"`
	// LineReads / LineWrites count 256-byte device lines touched.
	LineReads  int64 `json:"line_reads"`
	LineWrites int64 `json:"line_writes"`
	// ReadStallNs / WriteStallNs are the injected latency actually paid
	// (block-buffer hits and disabled models pay nothing).
	ReadStallNs  int64 `json:"read_stall_ns"`
	WriteStallNs int64 `json:"write_stall_ns"`
}

// RetrainSnapshot is the background-retraining section of a Snapshot:
// the retrain pool's queue state and the time split between background
// work and foreground (inline) stalls — the paper's retraining cost,
// separated by where it was paid. It doubles as the value type retrain
// probes return to the sink.
type RetrainSnapshot struct {
	Workers    int   `json:"workers"`
	QueueDepth int64 `json:"queue_depth"`
	Submitted  int64 `json:"submitted"`
	Coalesced  int64 `json:"coalesced"`
	Executed   int64 `json:"executed"`
	// Inline counts retrains that ran on the submitting goroutine
	// because the queue was full or the pool closed.
	Inline int64 `json:"inline"`
	// BackgroundNs / ForegroundNs split the retrain time by where it was
	// spent: pool workers vs the submitting (foreground) goroutine.
	BackgroundNs int64 `json:"background_ns"`
	ForegroundNs int64 `json:"foreground_ns"`
}

func (r RetrainSnapshot) add(o RetrainSnapshot) RetrainSnapshot {
	if o.Workers != 0 {
		r.Workers = o.Workers
	}
	r.QueueDepth += o.QueueDepth
	r.Submitted += o.Submitted
	r.Coalesced += o.Coalesced
	r.Executed += o.Executed
	r.Inline += o.Inline
	r.BackgroundNs += o.BackgroundNs
	r.ForegroundNs += o.ForegroundNs
	return r
}

// ServerSnapshot is the network-front-end section of a Snapshot: the
// vipersrv connection state and the shape of its Get runs — whether
// pipelined point reads reach the store as MultiGet batches (batch
// p50 > 1). It doubles as the value type server probes return to the
// sink.
type ServerSnapshot struct {
	// ConnsOpen / ConnsTotal count currently open and lifetime-accepted
	// connections.
	ConnsOpen  int64 `json:"conns_open"`
	ConnsTotal int64 `json:"conns_total"`
	// InFlight is the number of received requests not yet answered,
	// summed over connections.
	InFlight int64 `json:"in_flight"`
	// Accepted counts requests received and executed. Rejected counted
	// requests refused over a full in-flight window; the server holds
	// the window by writing instead, so it stays in the schema at 0.
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
	// BadFrames counts undecodable, cut or oversized frames (the
	// connection is dropped after each); transport errors are not
	// counted.
	BadFrames int64 `json:"bad_frames"`
	// BytesIn / BytesOut are wire bytes after framing.
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
	// Get runs: a connection's consecutive pipelined Gets execute as one
	// MultiGet. Runs of two or more, the Gets they carried, and the run
	// length distribution. FlushFull counts runs cut by a limit (the run
	// cap, the in-flight window, a full response buffer), FlushTimer runs
	// ended by the input (another op, or nothing more buffered).
	CoalesceBatches int64 `json:"coalesce_batches"`
	CoalescedGets   int64 `json:"coalesced_gets"`
	BatchP50        int64 `json:"batch_p50"`
	BatchP99        int64 `json:"batch_p99"`
	BatchMax        int64 `json:"batch_max"`
	FlushFull       int64 `json:"flush_full"`
	FlushTimer      int64 `json:"flush_timer"`
	// Drains counts graceful drains served (OpDrain requests plus
	// shutdown drains).
	Drains int64 `json:"drains"`
}

func (s ServerSnapshot) add(o ServerSnapshot) ServerSnapshot {
	s.ConnsOpen += o.ConnsOpen
	s.ConnsTotal += o.ConnsTotal
	s.InFlight += o.InFlight
	s.Accepted += o.Accepted
	s.Rejected += o.Rejected
	s.BadFrames += o.BadFrames
	s.BytesIn += o.BytesIn
	s.BytesOut += o.BytesOut
	s.CoalesceBatches += o.CoalesceBatches
	s.CoalescedGets += o.CoalescedGets
	// Percentiles don't fold; the live probe's distribution wins when it
	// has seen batches, otherwise the retired totals' shape is kept.
	if o.CoalesceBatches > 0 {
		s.BatchP50, s.BatchP99, s.BatchMax = o.BatchP50, o.BatchP99, o.BatchMax
	}
	s.FlushFull += o.FlushFull
	s.FlushTimer += o.FlushTimer
	s.Drains += o.Drains
	return s
}

func (p PMemSnapshot) add(o PMemSnapshot) PMemSnapshot {
	p.Reads += o.Reads
	p.Writes += o.Writes
	p.Flushes += o.Flushes
	p.LineReads += o.LineReads
	p.LineWrites += o.LineWrites
	p.ReadStallNs += o.ReadStallNs
	p.WriteStallNs += o.WriteStallNs
	return p
}

// Snapshot is the structured, JSON-stable view of a Sink at one instant.
// It is what the -obs HTTP endpoint serves and what the plain-text
// table renders. All fields are
// plain values so a Snapshot round-trips through JSON losslessly.
type Snapshot struct {
	TakenUnixNs int64         `json:"taken_unix_ns"`
	Store       StoreSnapshot `json:"store"`
	PMem        PMemSnapshot  `json:"pmem"`
	// Retrain is the retrain-pool digest; the zero value means no pool
	// was ever attached (the text renderer omits the table then).
	Retrain RetrainSnapshot `json:"retrain"`
	// Server is the network front end's digest; the zero value means no
	// server ever attached (the text renderer omits the table then).
	Server  ServerSnapshot `json:"server"`
	Indexes []IndexStats   `json:"indexes"`
	// Search carries the per-kernel last-mile search and probe counters.
	// They are process-global: every sink reports the same kernel state.
	Search []search.KernelStats `json:"search,omitempty"`
	// Epoch is the reclamation pipeline's digest: the default manager's
	// clock/advance/retire/free counters plus the optimistic-read
	// attempt/retry/fallback counters. Process-global like Search — the
	// epoch clock is shared by every store in the process.
	Epoch epoch.Stats `json:"epoch"`
}

// Snapshot digests the sink. Recording may continue concurrently; the
// result is consistent enough for reporting (each counter is read once,
// histograms are merged copies). Returns the zero Snapshot on nil.
func (s *Sink) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	// Pull the live probes first: add the live counters on top of the
	// retired totals, and file the live index digest beside the retired
	// ones.
	s.mu.Lock()
	probe := s.probe
	pmemProbe := s.pmemProbe
	retrainProbe := s.retrainProbe
	serverProbe := s.serverProbe
	pm := s.pmem
	rt := s.retrain
	sv := s.server
	s.mu.Unlock()
	var live IndexStats
	if probe != nil {
		live = probe()
	}
	if pmemProbe != nil {
		pm = pm.add(pmemProbe())
	}
	if retrainProbe != nil {
		rt = rt.add(retrainProbe())
	}
	if serverProbe != nil {
		sv = sv.add(serverProbe())
	}

	m := s.Store
	snap := Snapshot{
		TakenUnixNs: time.Now().UnixNano(),
		Store: StoreSnapshot{
			Put:           m.Put.snapshot(),
			Get:           m.Get.snapshot(),
			Delete:        m.Delete.snapshot(),
			Scan:          m.Scan.snapshot(),
			MultiGet:      m.MultiGet.snapshot(),
			GetMisses:     m.GetMisses.Load(),
			MultiGetKeys:  m.MultiGetKeys.Load(),
			PageRollovers: m.PageRollovers.Load(),
			Tombstones:    m.Tombstones.Load(),
			LiveKeys:      m.LiveKeys.Load(),
			ScanBatches:   m.ScanBatches.Load(),
			ScanEntries:   m.ScanEntries.Load(),
			ScanPresorted: m.ScanPresorted.Load(),
			ScanPinYields: m.ScanPinYields.Load(),
			ScanReseeks:   m.ScanReseeks.Load(),
			Recovery:      m.Recovery.snapshot(),
			Compaction:    m.Compaction.snapshot(),
			BulkLoad:      m.BulkLoad.snapshot(),
		},
		PMem:    pm,
		Retrain: rt,
		Server:  sv,
		Search:  search.StatsSnapshot(),
		Epoch:   epoch.GlobalStats(),
	}
	s.mu.Lock()
	if probe != nil {
		s.indexes[live.Name] = live
	}
	for _, st := range s.indexes {
		snap.Indexes = append(snap.Indexes, st)
	}
	s.mu.Unlock()
	sort.Slice(snap.Indexes, func(i, j int) bool { return snap.Indexes[i].Name < snap.Indexes[j].Name })
	return snap
}

// WriteJSON writes the snapshot as indented JSON. The snapshot is plain
// data, so json.Unmarshal into a Snapshot inverts it exactly.
func (sn Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sn)
}
