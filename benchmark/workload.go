package main

import (
	"fmt"
	"runtime"
	"time"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/epoch"
	"learnedpieces/internal/index"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/telemetry"
)

type options struct {
	seed    int64
	seconds float64
	scale   float64
	trace   bool
	outDir  string
}

// keys is the dataset size.
func (o options) keys() int { return max(int(keysAtScale1*o.scale), 4096) }

// nominalNs is what one op of each class cost on the box the benchmark
// was written on (2 cores, simulated Optane), direct and over the wire
// (per op, both connections together). It only converts -seconds into
// fixed op counts: phases run a fixed number of ops, so two commits
// execute identical streams and a faster one simply finishes sooner.
var (
	nominalNs     = [numClasses]float64{cGet: 1250, cPut: 1100, cDelete: 1100, cMultiGet: 16000, cRange: 30000}
	nominalWireNs = [numClasses]float64{cGet: 3400, cPut: 4500, cDelete: 4500, cMultiGet: 12000, cRange: 21000}
)

// opsFor converts a time budget into an op count for a mix.
func opsFor(mx mix, seconds float64, wire bool) int {
	cost := &nominalNs
	if wire {
		cost = &nominalWireNs
	}
	var perOp float64
	for c := class(0); c < numClasses; c++ {
		perOp += mx.share(c) * cost[c]
	}
	return max(int(seconds*1e9/perOp), 64)
}

// run is one workload's execution state.
type run struct {
	w      *workload
	o      options
	res    *runResult
	tr     *tracer
	models []*model
	loaded []uint64  // the keys the bulk load installed, sorted
	cfgs   []*config // primary first, then the panels
	// phases and streams of the primary store, by phase name; the panels'
	// main phases are "<index>.main".
	phases  map[string]*phaseResult
	streams map[string]*stream
	probe   probeResult
	// wire is the server-side and process cost of the workload's wire
	// traffic: the main phase on wire-mixed, the client probe elsewhere.
	wire wireTotals
}

func runWorkload(w *workload, o options) (*runResult, error) {
	r := &run{w: w, o: o, res: newResult(w.name, o.trace),
		phases: make(map[string]*phaseResult), streams: make(map[string]*stream)}
	if o.trace {
		r.tr = newTracer()
	}
	defer r.closeStores()
	if err := r.setup(); err != nil {
		return nil, err
	}
	if err := r.measure(); err != nil {
		return nil, err
	}
	r.endToEnd()
	if o.trace {
		if err := r.layers(); err != nil {
			return nil, err
		}
	}
	if err := r.epilogue(); err != nil {
		return nil, err
	}
	var fp uint64 = fnvOffset
	for _, m := range r.models {
		fp = mixHash(fp, m.fp)
	}
	r.res.Fingerprint = fmt.Sprintf("%016x", fp)
	r.res.finish()
	if r.tr != nil {
		if err := r.tr.write(fmt.Sprintf("%s/trace-%s.json", o.outDir, w.name), w.name); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

func (r *run) closeStores() {
	for _, c := range r.cfgs {
		_ = c.store.Close() // a second Close only reports ErrClosed
	}
	r.cfgs = nil
}

// setup generates the dataset and opens and bulk-loads every store,
// setupReps times over; the last set is the one measured. setup_s is
// the median, so work a later change moves into set-up shows without a
// single slow page-fault storm deciding the number.
func (r *run) setup() error {
	n := r.o.keys()
	parts := 1
	if r.w.wire {
		parts = wireConns
	}
	// Regions hold the load and every write their store may see, and no
	// more: the runtime zeroes a region's memory when it reuses a freed
	// one's, which is most of what a set-up costs. The panels only run
	// the rewrite and the head of the main stream; the primary also runs
	// the passes and, on traced runs, builds Compact's copy.
	writes := func(mx mix, share float64, wire bool) int {
		return int(float64(opsFor(mx, r.o.seconds*share, wire)) * (mx.share(cPut) + mx.del))
	}
	mainWrites := writes(r.w.main, r.w.mainShare, r.w.wire)
	panel := n + int(r.w.rewrite*float64(n)) + int(float64(mainWrites)*sharePanel/r.w.mainShare)
	primary := n + int(r.w.rewrite*float64(n)) + mainWrites
	for _, p := range passes {
		primary += writes(p.mix, r.passShare(), false)
	}
	if r.tr != nil {
		primary += n
	}
	var total, gen, bulk []float64
	for rep := 0; rep < setupReps; rep++ {
		r.closeStores()
		t0 := time.Now()
		keys := dataset.Generate(dataset.OSMLike, n, r.o.seed)
		genS := time.Since(t0).Seconds()
		if rep == 0 {
			var loaded [][]uint64
			for p, part := range partition(keys, parts) {
				m := newModel(part, r.w.holdEvery, r.w.zipf, parts == 1, r.o.seed+int64(p)*7919)
				r.models = append(r.models, m)
				loaded = append(loaded, m.loaded())
			}
			r.loaded = mergeSorted(loaded)
		}
		t1 := time.Now()
		for i, name := range append([]string{primaryIndex}, panelIndexes...) {
			tb := time.Now()
			records := panel
			if i == 0 {
				records = primary
			}
			c, err := openConfig(name, r.loaded, records, r.w, true)
			if err != nil {
				return err
			}
			if i == 0 {
				bulk = append(bulk, time.Since(tb).Seconds())
			}
			r.cfgs = append(r.cfgs, c)
		}
		gen = append(gen, genS)
		total = append(total, genS+time.Since(t1).Seconds())
	}
	r.res.set("setup_s", total...)
	r.res.set("dataset.generate_s", gen...)
	r.res.set("viper.bulkput_s", bulk...)
	return nil
}

// generate draws the next phase's streams, one per model, just before
// the phase runs: every earlier stream has been executed in full on the
// primary store, so the models' state is the store's state.
func (r *run) generate(mx mix, seconds float64, wire bool, models []*model) []*stream {
	count := opsFor(mx, seconds, wire) / len(models)
	burst := 0
	if wire {
		burst = wireBurst
	}
	streams := make([]*stream, len(models))
	for i, m := range models {
		n := count
		if mx.insert > 0 {
			// Leave absent keys for the passes that follow.
			n = min(n, int(0.8*float64(len(m.held))/mx.insert))
		}
		if mx.del > 0 {
			// Never delete more than an eighth of the present keys.
			n = min(n, int(float64(len(m.pool))/8/mx.del))
		}
		streams[i] = m.generate(mx, n, burst)
	}
	return streams
}

func whole(streams []*stream) [][]op {
	out := make([][]op, len(streams))
	for i, s := range streams {
		out[i] = s.ops
	}
	return out
}

// begin starts one phase on one store, by direct calls or over the wire.
func (r *run) begin(cfg *config, srv *served, name string, streams []*stream, ops [][]op, rounds int, tr *tracer) (phase, error) {
	if srv != nil {
		return beginWire(srv.addr, name, streams, ops, rounds, tr)
	}
	return beginDirect(cfg, r.models[0].exact, tr, name, streams[0], ops[0], rounds), nil
}

// finish ends a phase and books its result.
func (r *run) finish(cfg *config, p phase) *phaseResult {
	res := p.end()
	r.res.Attempted += res.ops
	r.res.Failed += res.failed
	r.res.addPhase(cfg.index, res)
	return res
}

// exec runs one phase on one store from its first round to its last.
func (r *run) exec(cfg *config, srv *served, name string, streams []*stream, rounds int, tr *tracer) (*phaseResult, error) {
	p, err := r.begin(cfg, srv, name, streams, whole(streams), rounds, tr)
	for k := 0; err == nil && k < rounds; k++ {
		err = p.round(k)
	}
	if err != nil {
		return nil, err
	}
	return r.finish(cfg, p), nil
}

// measure runs the untimed rewrite, the main phase on every store, and
// the pure passes on the primary store.
func (r *run) measure() error {
	w := r.w
	if w.rewrite > 0 {
		// One stream, applied to every store: record offset order stops
		// matching key order before anything is measured.
		n := int(w.rewrite * float64(len(r.models[0].pool)))
		prep := []*stream{r.models[0].generate(mix{update: 1}, n, 0)}
		for _, cfg := range r.cfgs {
			if _, err := r.exec(cfg, nil, "rewrite", prep, 1, nil); err != nil {
				return err
			}
		}
	}

	srvs := make([]*served, len(r.cfgs))
	if w.wire {
		for i, cfg := range r.cfgs {
			srv, err := serve(cfg)
			if err != nil {
				return err
			}
			defer func() { _ = srv.stop() }() // a second stop is a no-op
			srvs[i] = srv
		}
	}

	// The main phase: the primary store runs the whole stream, the panels
	// its head, and the three take turns round by round.
	main := r.generate(w.main, r.o.seconds*w.mainShare, w.wire, r.models)
	phases := make([]phase, len(r.cfgs))
	for i, cfg := range r.cfgs {
		ops, tr := whole(main), r.tr
		if i > 0 {
			for j := range ops {
				ops[j] = ops[j][:int(float64(len(ops[j]))*sharePanel/w.mainShare)]
			}
			tr = nil
		}
		var err error
		if phases[i], err = r.begin(cfg, srvs[i], "main", main, ops, roundsMain, tr); err != nil {
			return err
		}
	}
	var cpu int64
	var m0 telemetry.ServerSnapshot
	if w.wire {
		m0 = srvs[0].srv.Metrics()
	}
	for k := 0; k < roundsMain; k++ {
		for i, p := range phases {
			c0 := cpuNs()
			if err := p.round(k); err != nil {
				return err
			}
			if i == 0 {
				cpu += cpuNs() - c0
			}
		}
	}
	for i, cfg := range r.cfgs {
		res := r.finish(cfg, phases[i])
		if i > 0 {
			r.phases[cfg.index+".main"] = res
			continue
		}
		r.phases["main"] = res
		if w.wire {
			r.wire = srvs[0].totals(res.ops, cpu, m0)
		}
	}

	if err := r.passes(srvs[0]); err != nil {
		return err
	}
	for _, srv := range srvs {
		if srv == nil {
			continue
		}
		if err := srv.stop(); err != nil {
			return err
		}
	}
	if w.wire && r.tr != nil {
		// The store layers under the server, measured by direct calls.
		return r.passes(nil)
	}
	return nil
}

// passes runs the pure passes on the primary store: over the wire
// (srv != nil) the ones an end-to-end metric needs, and by direct calls
// those plus, on traced runs, all the others, which the per-layer
// metrics are computed from. On a wire workload's traced run the wire
// passes are followed by the client probe, while the server is up.
//
// Passes that only read leave the model and the store as they found
// them, so on untraced runs consecutive ones take turns round by round:
// each then samples the whole stretch they share instead of its own two
// or three seconds, and a neighbour's burst of that length is a minority
// of its rounds. A traced run keeps them apart, because it reads the
// layers' counters at each pass's boundaries.
func (r *run) passes(srv *served) error {
	type begun struct {
		name   string
		stream *stream
		p      phase
	}
	var turn []begun
	runTurn := func() error {
		for k := 0; k < roundsPass; k++ {
			for _, b := range turn {
				if err := b.p.round(k); err != nil {
					return err
				}
			}
		}
		for _, b := range turn {
			r.phases[b.name], r.streams[b.name] = r.finish(r.cfgs[0], b.p), b.stream
		}
		turn = turn[:0]
		return nil
	}
	for _, p := range passes {
		needed := r.w.needsPass(p.class)
		name := p.name
		if srv != nil {
			name = "wire-" + p.name
		}
		var wanted bool
		switch {
		case srv != nil:
			wanted = needed
		case r.w.wire:
			wanted = r.tr != nil
		default:
			wanted = needed || r.tr != nil
		}
		if !wanted {
			continue
		}
		alone := r.tr != nil || p.mix.share(cPut)+p.mix.share(cDelete) > 0
		if alone {
			// The stream below is drawn from the model as the passes in
			// turn leave it, and writes to the store they read.
			if err := runTurn(); err != nil {
				return err
			}
		}
		models := r.models
		if srv == nil {
			models = models[:1]
		}
		streams := r.generate(p.mix, r.o.seconds*r.passShare(), srv != nil, models)
		ph, err := r.begin(r.cfgs[0], srv, name, streams, whole(streams), roundsPass, r.tr)
		if err != nil {
			return err
		}
		turn = append(turn, begun{name, streams[0], ph})
		if alone {
			if err := runTurn(); err != nil {
				return err
			}
		}
	}
	if err := runTurn(); err != nil {
		return err
	}
	if srv != nil && r.tr != nil {
		return r.clientProbe(srv)
	}
	return nil
}

// passShare is each pure pass's share of -seconds: what the main phase
// and the panels leave, split between the passes an untraced run needs.
func (r *run) passShare() float64 {
	needed := 0
	for _, p := range passes {
		if r.w.needsPass(p.class) {
			needed++
		}
	}
	return (1 - r.w.mainShare - float64(len(panelIndexes))*sharePanel) / float64(needed)
}

// feeder returns the phase an end-to-end latency metric of class c is
// read from: the main phase when its mix carries enough of the class,
// else the class's pure pass.
func (r *run) feeder(c class) *phaseResult {
	if !r.w.needsPass(c) {
		return r.phases["main"]
	}
	for _, p := range passes {
		if p.class == c {
			if r.w.wire {
				return r.phases["wire-"+p.name]
			}
			return r.phases[p.name]
		}
	}
	return nil
}

// endToEnd fills the metrics that come from the timed phases.
func (r *run) endToEnd() {
	r.res.setRounds("ops_per_s", r.phases["main"].rates(nil)...)
	for _, cfg := range r.cfgs[1:] {
		r.res.setRounds(cfg.index+".ops_per_s", r.phases[cfg.index+".main"].rates(nil)...)
	}
	r.res.setRounds("get_p50_ns", r.feeder(cGet).perRound(cGet, p50)...)
	r.res.setRounds("get_p95_ns", r.feeder(cGet).perRound(cGet, p95)...)
	r.res.setRounds("put_p50_ns", r.feeder(cPut).perRound(cPut, p50)...)
	r.res.setRounds("multiget16_p50_ns", r.feeder(cMultiGet).perRound(cMultiGet, p50)...)
	r.res.setRounds("range_p50_ns", r.feeder(cRange).perRound(cRange, p50)...)
}

// epilogue takes the space numbers, crashes the primary store's index
// and recovers it, checks every key against the oracle, and on traced
// runs compacts.
func (r *run) epilogue() error {
	cfg := r.cfgs[0]
	st := cfg.store
	st.DrainRetrains()
	allocated := float64(cfg.region.Allocated())
	r.res.set("pmem_bytes_per_user_byte", allocated/float64(st.Len()*userBytes))
	sizes, _ := index.SizesOf(st.Index())
	r.res.set("index_bytes_per_key", float64(sizes.Total())/float64(st.Len()))

	// Untraced runs recover once, for the check; traced runs repeat it
	// for the timing.
	reps := 1
	if r.tr != nil {
		reps = recoverReps
	}
	var recovers []float64
	for i := 0; i < reps; i++ {
		st.DropIndex(cfg.fresh())
		t0 := time.Now()
		if err := st.Recover(cfg.fresh()); err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		recovers = append(recovers, time.Since(t0).Seconds())
	}
	r.res.set("viper.recover_s", recovers...)
	r.verifyAll(cfg)

	if r.tr != nil {
		if bulk := r.res.Metrics["index.bulkload_s"]; bulk != nil {
			r.res.set("viper.recover_scan_s", median(recovers)-bulk.Value)
		}
		t0 := time.Now()
		reclaimed, err := st.Compact(cfg.fresh())
		if err != nil {
			return fmt.Errorf("compact: %w", err)
		}
		r.res.set("viper.compact_s", time.Since(t0).Seconds())
		r.res.set("viper.compact_reclaimed_share", float64(reclaimed)/allocated)
		r.verifyAll(cfg)
		// Compact retired its old pages; three advances run every
		// deferred free, after which nothing may be pending.
		for i := 0; i < 3; i++ {
			epoch.Advance()
		}
		es := epoch.GlobalStats()
		r.res.set("epoch.retired", float64(es.Retired))
		r.res.set("epoch.pending_after_drain", float64(es.Pending))
		r.res.set("epoch.read_retry_rate", ratio(float64(es.ReadRetries), float64(es.ReadAttempts)))

		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.res.set("runtime.gc_cycles", float64(ms.NumGC))
		r.res.set("runtime.gc_pause_ms", float64(ms.PauseTotalNs)/1e6)
		r.res.set("runtime.heap_inuse_mb", float64(ms.HeapInuse)/(1<<20))
	}
	return nil
}

// verifyAll reads every key of the dataset back and compares it with
// the oracle: every acknowledged write must be there at its last
// version, every deleted or never-inserted key must be absent. Untimed,
// so the simulated stall is switched off while it runs.
func (r *run) verifyAll(cfg *config) {
	cfg.region.SetLatency(pmem.None())
	defer cfg.region.SetLatency(pmem.Optane())
	for _, m := range r.models {
		for i, key := range m.keys {
			r.res.Attempted++
			v, ok := cfg.store.Get(key)
			want := m.ver[i]
			if want&deadBit != 0 {
				if ok {
					r.res.Failed++
				}
				continue
			}
			if ver, good := readStamp(v, key); !ok || !good || ver != uint64(want) {
				r.res.Failed++
			}
		}
	}
}

// ratio is a/b, and 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
