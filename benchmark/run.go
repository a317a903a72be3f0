package main

import (
	"math"
	"slices"
	"time"
)

// classStat is one round's latency digest for one operation class.
type classStat struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean_ns"`
	P50  float64 `json:"p50_ns"`
	P95  float64 `json:"p95_ns"`
	P99  float64 `json:"p99_ns"`
	P999 float64 `json:"p999_ns"`
}

// roundStat is one of the equal slices a phase is cut into. On this
// shared box single runs moved by 10% and more while a neighbour was
// busy, so every timing metric is taken over rounds of the round's own
// statistic (runResult.setRounds).
type roundStat struct {
	Ops    int
	Rate   float64 // ops per second
	Traced bool
	Class  [numClasses]classStat
}

type phaseResult struct {
	name    string
	rounds  []roundStat
	ops     int
	failed  int
	entries int // keys asked of MultiGet plus entries Range delivered
	// counters is filled on traced runs only.
	counters counterDeltas
}

// rates returns the per-round throughput, optionally of traced or
// untraced rounds only.
func (p *phaseResult) rates(filter func(roundStat) bool) []float64 {
	var out []float64
	for _, r := range p.rounds {
		if filter == nil || filter(r) {
			out = append(out, r.Rate)
		}
	}
	return out
}

// perRound returns f of the class's digest for every round that saw
// the class.
func (p *phaseResult) perRound(c class, f func(classStat) float64) []float64 {
	var out []float64
	for _, r := range p.rounds {
		if r.Class[c].N > 0 {
			out = append(out, f(r.Class[c]))
		}
	}
	return out
}

// count and mean are the class's totals over the whole phase.
func (p *phaseResult) count(c class) int {
	n := 0
	for _, r := range p.rounds {
		n += r.Class[c].N
	}
	return n
}

func (p *phaseResult) mean(c class) float64 {
	var sum float64
	for _, r := range p.rounds {
		sum += r.Class[c].Mean * float64(r.Class[c].N)
	}
	return sum / float64(p.count(c))
}

func p50(c classStat) float64  { return c.P50 }
func p95(c classStat) float64  { return c.P95 }
func p99(c classStat) float64  { return c.P99 }
func p999(c classStat) float64 { return c.P999 }

// digest sorts lat in place and summarises it.
func digest(lat []uint32) classStat {
	if len(lat) == 0 {
		return classStat{}
	}
	slices.Sort(lat)
	var sum float64
	for _, d := range lat {
		sum += float64(d)
	}
	rank := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(lat)))) - 1
		return float64(lat[max(i, 0)])
	}
	return classStat{N: len(lat), Mean: sum / float64(len(lat)), P50: rank(0.50), P95: rank(0.95), P99: rank(0.99), P999: rank(0.999)}
}

// digestRound buckets one round's per-op latencies by class.
func digestRound(ops []op, lat []uint32, scratch *[numClasses][]uint32) (out [numClasses]classStat) {
	for c := range scratch {
		scratch[c] = scratch[c][:0]
	}
	for i, o := range ops {
		c := o.kind.class()
		scratch[c] = append(scratch[c], lat[i])
	}
	for c := range scratch {
		out[c] = digest(scratch[c])
	}
	return out
}

// median returns the middle of xs (mean of the two middles when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the driver uses for spreads. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// phase is a phase in progress. It runs one round at a time so that
// the main phases of the three stores can take turns: the machine's
// speed drifts over seconds, and stores measured in turns see the same
// drift, where stores measured one after another would not.
type phase interface {
	round(k int) error
	end() *phaseResult
}

// directPhase runs a phase against one store by direct calls: one
// goroutine, closed loop, one clock read per op. Each op's latency runs
// from the previous op's stamp to its own, so loop overhead and answer
// checking are inside it, as they are for a caller. On traced runs
// every other round is traced, which lets one run report the tracing
// overhead on identical store states.
type directPhase struct {
	cfg   *config
	exact bool    // the stream's model owns the whole store: check Range hashes
	tr    *tracer // nil on untraced runs
	s     *stream
	ops   []op // a prefix of s.ops
	per   int  // ops per round
	res   phaseResult

	val     []byte
	lat     []uint32
	scratch [numClasses][]uint32
	base    time.Time
	opBase  int64
	before  counterSnap

	// One closure serves every Range of the phase: a closure per op
	// would be the benchmark's allocation, not the store's.
	visit     func(k uint64, v []byte) bool
	rangeHash uint64
	rangeLast uint64
	rangeN    int
	rangeBad  bool
}

func beginDirect(cfg *config, exact bool, tr *tracer, name string, s *stream, ops []op, rounds int) *directPhase {
	p := &directPhase{
		cfg: cfg, exact: exact, tr: tr, s: s, ops: ops,
		per:  max((len(ops)+rounds-1)/rounds, 1),
		res:  phaseResult{name: name, ops: len(ops)},
		val:  bulkValue(),
		lat:  make([]uint32, len(ops)),
		base: time.Now(),
	}
	if tr != nil {
		p.before = cfg.snap()
		p.opBase = tr.phase(name)
		p.base = tr.t0 // spans of all phases share the tracer's clock
	}
	p.visit = func(k uint64, v []byte) bool {
		ver, ok := readStamp(v, k)
		if !ok || (p.rangeN > 0 && k <= p.rangeLast) {
			p.rangeBad = true
		}
		p.rangeHash = mixHash(mixHash(p.rangeHash, k), ver)
		p.rangeLast = k
		p.rangeN++
		return true
	}
	return p
}

func (p *directPhase) round(k int) error {
	lo := k * p.per
	hi := min(lo+p.per, len(p.ops))
	if lo >= hi {
		return nil
	}
	st, region, res := p.cfg.store, p.cfg.region, &p.res
	traced := p.tr != nil && k%2 == 0
	start := int64(time.Since(p.base))
	t0 := start
	for i := lo; i < hi; i++ {
		o := &p.ops[i]
		trace := traced && sampled(i)
		var s0 [2]int64
		if trace {
			a := region.AccessStats()
			s0 = [2]int64{a.ReadStallNs, a.WriteStallNs}
		}
		switch o.kind {
		case kGet:
			v, ok := st.Get(o.key)
			if !ok {
				res.failed++
			} else if ver, good := readStamp(v, o.key); !good || ver-o.want > uint64(o.n) {
				res.failed++
			}
		case kUpdate, kInsert:
			putStamp(p.val, o.key, o.want)
			if err := st.Put(o.key, p.val); err != nil {
				res.failed++
			}
		case kDelete:
			if existed, err := st.Delete(o.key); err != nil || !existed {
				res.failed++
			}
		case kMultiGet:
			keys := p.s.mgKeys[o.key : o.key+multiGetBatch]
			h, bad := fnvOffset, false
			for j, v := range st.MultiGet(keys) {
				ver, good := readStamp(v, keys[j])
				bad = bad || !good
				h = mixHash(h, ver)
			}
			if bad || h != o.want {
				res.failed++
			}
			res.entries += multiGetBatch
		case kRange:
			p.rangeHash, p.rangeN, p.rangeBad = fnvOffset, 0, false
			err := st.Range(o.key, int(o.n), p.visit)
			if err != nil || p.rangeBad || p.rangeN == 0 || (p.exact && p.rangeHash != o.want) {
				res.failed++
			}
			res.entries += p.rangeN
		}
		t1 := int64(time.Since(p.base))
		p.lat[i] = uint32(min(t1-t0, math.MaxUint32))
		if trace {
			a := region.AccessStats()
			id := p.opBase + int64(i)
			p.tr.root(id, "viper", classNames[o.kind.class()], t0, t1)
			// What the region charged inside the call: a child span as
			// long as the stall, anchored at the call's start.
			if d := a.ReadStallNs - s0[0]; d > 0 {
				p.tr.child(id, "pmem", "read_stall", t0, t0+d)
			}
			if d := a.WriteStallNs - s0[1]; d > 0 {
				p.tr.child(id, "pmem", "write_stall", t0, t0+d)
			}
			t1 = int64(time.Since(p.base))
		}
		t0 = t1
	}
	res.rounds = append(res.rounds, roundStat{
		Ops:    hi - lo,
		Rate:   float64(hi-lo) / (float64(t0-start) / 1e9),
		Traced: traced,
		Class:  digestRound(p.ops[lo:hi], p.lat[lo:hi], &p.scratch),
	})
	return nil
}

func (p *directPhase) end() *phaseResult {
	if p.tr != nil {
		p.res.counters = p.before.until(p.cfg.snap())
		p.tr.counts[p.res.name] = p.res.counters
		p.tr.aggregateClasses("viper", &p.res)
	}
	return &p.res
}
