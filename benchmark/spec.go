package main

// This file is the benchmark's contract in Go form: the workloads, the
// end-to-end metrics with their bounds, and the per-layer metrics with
// the end-to-end metric each is expected to move. BENCHMARK.json states
// the same names for the driver; smoke_test.go fails when the two drift.

// mix is an operation mix as shares that sum to 1.
type mix struct {
	get, update, insert, del, multiget, scan float64
}

// share reports the mix's share of a reported operation class (update
// and insert are one class, "put").
func (m mix) share(c class) float64 {
	switch c {
	case cGet:
		return m.get
	case cPut:
		return m.update + m.insert
	case cDelete:
		return m.del
	case cMultiGet:
		return m.multiget
	default:
		return m.scan
	}
}

// workload is one traffic shape. Every workload runs its main phase on
// the primary store and its head on the two panel stores, the three
// taking turns round by round, then one short pure pass per operation
// class its main mix carries too little of (mainFeeds), so every
// end-to-end metric exists on every workload (the driver's contract);
// the README says which numbers a workload is designed around.
type workload struct {
	name string
	why  string
	main mix
	// zipf selects YCSB's scrambled zipfian (theta 0.99) over the
	// present keys; false is uniform.
	zipf bool
	// holdEvery keeps every holdEvery-th dataset key out of the bulk
	// load; those keys are what inserts add.
	holdEvery int
	// rewrite is the share of loaded keys overwritten (in random
	// order, untimed) before measuring, so record offset order stops
	// matching key order.
	rewrite float64
	// wire drives the phases through server.New over loopback TCP with
	// vipersrv's defaults instead of calling the store directly.
	wire bool
	// mainShare is the main phase's share of -seconds on the primary
	// store. Each panel store gets sharePanel; the pure passes split the
	// rest evenly.
	mainShare float64
}

var workloads = []workload{
	{
		name:      "read-uniform",
		why:       "YCSB-C: uniform Gets over a working set beyond every cache, so index descent, last-mile search and the PMem record read do all the work",
		main:      mix{get: 1},
		holdEvery: 4,
		mainShare: 0.36,
	},
	{
		name:      "write-mixed",
		why:       "40% Get, 30% update, 25% insert, 5% Delete, zipfian: the hot set is cache-resident, so append, flush, upsert, inline retrain and page rollover dominate",
		main:      mix{get: 0.40, update: 0.30, insert: 0.25, del: 0.05},
		zipf:      true,
		holdEvery: 2,
		mainShare: 0.36,
	},
	{
		name:      "scan-insert",
		why:       "YCSB-E: 95% Range of 1 to 100 entries, 5% insert, after rewriting half the keys; same index through Cursor, same region through span reads",
		main:      mix{scan: 0.95, insert: 0.05},
		holdEvery: 4,
		rewrite:   0.5,
		mainShare: 0.36,
	},
	{
		name:      "wire-mixed",
		why:       "88% Get, 8% update, 2% insert, 2% Range over loopback TCP, 2 connections pipelining 16 frames: wire, server, coalescer and socket do most of the work",
		main:      mix{get: 0.88, update: 0.08, insert: 0.02, scan: 0.02},
		zipf:      true,
		holdEvery: 4,
		wire:      true,
		// Generator and server need both cores, so a neighbour's burst of
		// a few seconds moves this workload most: its main phase is long
		// enough to see both sides of one.
		mainShare: 0.62,
	},
}

// needsPass reports whether an end-to-end metric of class c has to come
// from the class's pure pass, because the main mix carries too little
// of it (mainFeeds). Delete has no end-to-end metric.
func (w *workload) needsPass(c class) bool {
	return c != cDelete && w.main.share(c) < mainFeeds
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Pure passes, one operation class each, on the workload's own store
// and request distribution.
var passes = []struct {
	name  string
	class class
	mix   mix
}{
	{"get", cGet, mix{get: 1}},
	{"multiget", cMultiGet, mix{multiget: 1}},
	{"range", cRange, mix{scan: 1}},
	{"put", cPut, mix{update: 0.6, insert: 0.4}},
	{"delete", cDelete, mix{del: 1}},
}

// mainFeeds is the smallest share of the main mix at which a class's
// latency is taken from the main phase instead of from its pure pass.
// scan-insert's 5% of inserts is below it: an insert that follows a
// Range finds the caches as that Range left them, the p50 of 900 of
// them a round moved by 15% from round to round, and ten-run sets
// spread it by 10% here and by 19 and 29% in the driver's check.
const mainFeeds = 0.08

// Shares of -seconds. The untraced run spends the whole budget on the
// main phase (workload.mainShare), the two panels and the passes its
// end-to-end metrics need; the traced run adds the remaining passes and
// the boundary passes on top, so it runs longer than -seconds.
const (
	sharePanel = 0.12 // each of pgm and btree

	// Even, so a traced run has as many traced rounds as untraced ones.
	roundsMain = 20 // of the primary and of the panels, which take turns
	roundsPass = 12
)

// Scale 1 sizes. The issue asked for 2 M keys and 30 to 45 s per
// workload; the driver's cap (92 runs inside 3420 s) leaves about 25 s
// a run including three set-ups, so the dataset is 1 M keys (still
// 213 MB of records and about 20 MB of index, beyond every cache) and a
// run measures 15 s.
const (
	keysAtScale1   = 1_000_000
	setupReps      = 3
	recoverReps    = 3
	multiGetBatch  = 16
	maxRangeLen    = 100
	wireConns      = 2
	wireBurst      = 16
	traceSample    = 256 // spans are kept for 1 in traceSample op ids
	clientProbeOps = 20_000
)

// Panel indexes run the main phase only, for throughput.
const primaryIndex = "alex"

var panelIndexes = []string{"pgm", "btree"}

type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd: what a user of the service sees. bound is the share of the
// parent's median by which the metric may worsen before a change counts
// as a regression. The issue's table asked for 7 to 15%. This shared
// 2-core box moves between a faster and a slower state that each last
// minutes (a Get differs by 3 to 9% between them, a Put by up to 17%,
// everything over the wire by 15 to 20%), so ten runs with ten seeds
// spread (first to third quartile over the median) by 2 to 8% inside a
// state and by about the difference across a change, at 10 s and at
// 15 s alike. A benchmark whose spread exceeds its bound is refused, so
// every timing bound is the contract's cap. The two space metrics move
// only with the seed's dataset, by up to 0.8%. Three metrics of the
// issue's table are not here (README.md has the measurements):
// failed_share is the failed/attempted pair of every result line (the
// contract wants metrics that are never 0); recover_s is the per-layer
// viper.recover_s, a one-shot 0.6 s timing that spread by up to 25.7%;
// get_p99_ns is the per-layer viper.get_p99_ns, which ten-run sets
// spread by 28% in-process and by 29 and 34% over the wire, and the
// tail that carries a bound is get_p95_ns.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"get_p50_ns", "ns", "lower", 0.25},
	{"get_p95_ns", "ns", "lower", 0.25},
	{"put_p50_ns", "ns", "lower", 0.25},
	{"multiget16_p50_ns", "ns", "lower", 0.25},
	{"range_p50_ns", "ns", "lower", 0.25},
	{"pgm.ops_per_s", "1/s", "higher", 0.25},
	{"btree.ops_per_s", "1/s", "higher", 0.25},
	{"pmem_bytes_per_user_byte", "ratio", "lower", 0.03},
	{"index_bytes_per_key", "B", "lower", 0.03},
}

// layerMetric is a per-layer metric: no bound, but a prediction of
// which end-to-end metric it moves and where.
type layerMetric struct {
	name   string
	unit   string
	better string
	moves  string
}

// perLayer: layers are the module names under internal/. Every number
// is measured from outside the layer, by timing calls into its public
// functions and reading its public counters. Per-class numbers come
// from that class's pure in-process pass; wire/server/client numbers
// come from the main phase on wire-mixed and from the depth-1 client
// probe on the in-process workloads.
var perLayer = []layerMetric{
	{"dataset.generate_s", "s", "lower", "setup_s, all"},
	{"index.bulkload_s", "s", "lower", "setup_s all; viper.recover_s write-mixed"},
	{"index.get_ns", "ns", "lower", "get_p50_ns, ops_per_s on read-uniform (about 11% of a Get); <1% on wire-mixed"},
	{"index.pgm.get_ns", "ns", "lower", "pgm.ops_per_s on read-uniform"},
	{"index.btree.get_ns", "ns", "lower", "btree.ops_per_s on read-uniform"},
	{"index.getbatch16_ns_per_key", "ns", "lower", "multiget16_p50_ns on read-uniform"},
	{"index.upsert_p50_ns", "ns", "lower", "put_p50_ns on write-mixed"},
	{"index.upsert_p99_ns", "ns", "lower", "viper.put_p99_ns on write-mixed"},
	{"index.range_ns_per_key", "ns", "lower", "range_p50_ns on scan-insert"},
	{"index.depth", "count", "lower", "get_p50_ns on read-uniform"},
	{"index.retrain_count", "count", "lower", "put_p50_ns, ops_per_s on write-mixed"},
	{"index.retrain_ns_per_put", "ns", "lower", "put_p50_ns, ops_per_s on write-mixed"},
	{"search.probes_per_search", "count", "lower", "index.pgm.get_ns, so pgm.ops_per_s on read-uniform; little for alex"},
	{"search.lowerbound_w64_ns", "ns", "lower", "index.pgm.get_ns, so pgm.ops_per_s on read-uniform"},
	{"pmem.lines_read_per_get", "count", "lower", "get_p50_ns, ops_per_s on read-uniform (about 35% of a Get)"},
	{"pmem.read_stall_ns_per_get", "ns", "lower", "get_p50_ns, ops_per_s on read-uniform"},
	{"pmem.lines_read_per_multiget_key", "count", "lower", "multiget16_p50_ns on read-uniform"},
	{"pmem.read_stall_ns_per_multiget_key", "ns", "lower", "multiget16_p50_ns on read-uniform"},
	{"pmem.lines_written_per_put", "count", "lower", "put_p50_ns, pmem_bytes_per_user_byte on write-mixed"},
	{"pmem.write_stall_ns_per_put", "ns", "lower", "put_p50_ns on write-mixed"},
	{"pmem.flushes_per_put", "count", "lower", "put_p50_ns on write-mixed; the crash-safe format work must report it"},
	{"pmem.lines_read_per_range_key", "count", "lower", "range_p50_ns on scan-insert"},
	{"pmem.reads_per_range_key", "count", "lower", "range_p50_ns on scan-insert"},
	{"pmem.read_stall_ns_per_range_key", "ns", "lower", "range_p50_ns on scan-insert"},
	{"viper.get_self_ns", "ns", "lower", "get_p50_ns, ops_per_s on read-uniform (the largest share of a Get)"},
	{"viper.multiget_self_ns_per_key", "ns", "lower", "multiget16_p50_ns on read-uniform"},
	{"viper.put_self_ns", "ns", "lower", "put_p50_ns, ops_per_s on write-mixed"},
	{"viper.range_self_ns_per_key", "ns", "lower", "range_p50_ns, ops_per_s on scan-insert"},
	{"viper.get_allocs_per_op", "count", "lower", "get_p95_ns on read-uniform"},
	{"viper.put_allocs_per_op", "count", "lower", "ops_per_s on write-mixed"},
	{"viper.range_allocs_per_op", "count", "lower", "ops_per_s on scan-insert"},
	{"viper.get_p99_ns", "ns", "lower", "none: the tail beyond get_p95_ns, too unsteady to carry a bound"},
	{"viper.put_p99_ns", "ns", "lower", "ops_per_s on write-mixed"},
	{"viper.put_p999_ns", "ns", "lower", "ops_per_s on write-mixed"},
	{"viper.delete_p50_ns", "ns", "lower", "ops_per_s on write-mixed"},
	{"viper.bulkput_s", "s", "lower", "setup_s, all"},
	{"viper.recover_s", "s", "lower", "none: it is what a restart costs; the crash-safe format work must report it on write-mixed"},
	{"viper.recover_scan_s", "s", "lower", "viper.recover_s, all"},
	{"viper.compact_s", "s", "lower", "pmem_bytes_per_user_byte on write-mixed (space is only reclaimed by paying this)"},
	{"viper.compact_reclaimed_share", "ratio", "higher", "pmem_bytes_per_user_byte on write-mixed"},
	{"viper.page_rollovers", "count", "lower", "put_p50_ns on write-mixed"},
	{"viper.scan_batches_per_range", "count", "lower", "range_p50_ns on scan-insert"},
	{"viper.scan_reseeks", "count", "lower", "range_p50_ns on scan-insert"},
	{"retrain.executed", "count", "lower", "put_p50_ns, ops_per_s on wire-mixed (the pool only exists in async mode)"},
	{"retrain.inline_share", "ratio", "lower", "put_p50_ns on wire-mixed"},
	{"retrain.coalesced_share", "ratio", "higher", "ops_per_s on wire-mixed"},
	{"retrain.background_share", "ratio", "higher", "put_p50_ns on wire-mixed"},
	{"epoch.retired", "count", "lower", "get_p95_ns on wire-mixed"},
	{"epoch.pending_after_drain", "count", "lower", "none; must end 0"},
	{"epoch.read_retry_rate", "ratio", "lower", "get_p95_ns on wire-mixed"},
	{"wire.encode_get_req_ns", "ns", "lower", "ops_per_s, get_p50_ns on wire-mixed only"},
	{"wire.decode_get_req_ns", "ns", "lower", "ops_per_s, get_p50_ns on wire-mixed only"},
	{"wire.encode_get_resp_ns", "ns", "lower", "ops_per_s, get_p50_ns on wire-mixed only"},
	{"wire.decode_get_resp_ns", "ns", "lower", "ops_per_s, get_p50_ns on wire-mixed only"},
	{"wire.bytes_in_per_op", "B", "lower", "ops_per_s on wire-mixed only"},
	{"wire.bytes_out_per_op", "B", "lower", "ops_per_s on wire-mixed only"},
	{"server.coalesce_batch_p50", "count", "higher", "get_p50_ns, ops_per_s, btree.ops_per_s on wire-mixed"},
	{"server.coalesced_share", "ratio", "higher", "ops_per_s on wire-mixed"},
	{"server.flush_timer_share", "ratio", "lower", "get_p95_ns on wire-mixed"},
	{"server.rejected_share", "ratio", "lower", "ops_per_s on wire-mixed; must stay 0 with 16 in flight under a window of 128"},
	{"server.range_p50_ns", "ns", "lower", "range_p50_ns on wire-mixed"},
	{"server.cpu_ns_per_op", "ns", "lower", "ops_per_s on wire-mixed (both cores busy, so throughput is about cores over this)"},
	{"server.rtt_self_ns", "ns", "lower", "get_p50_ns on wire-mixed"},
	{"client.rtt_depth1_p50_ns", "ns", "lower", "get_p50_ns on wire-mixed"},
	{"client.allocs_per_op", "count", "lower", "get_p95_ns on wire-mixed"},
	{"telemetry.get_overhead_ratio", "ratio", "lower", "get_p50_ns on read-uniform (budget 1.05)"},
	{"runtime.gc_cycles", "count", "lower", "get_p95_ns, all"},
	{"runtime.gc_pause_ms", "ms", "lower", "get_p95_ns, all"},
	{"runtime.heap_inuse_mb", "MB", "lower", "get_p95_ns, all"},
	{"trace.overhead_ratio", "ratio", "lower", "none; reported so the traced numbers can be trusted"},
}
