package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one call the benchmark made into a layer. Spans of one
// operation share op_id; a boundary pass that replays the operation
// through a lower layer (bare index, codec) or reads what a lower
// layer charged (PMem stall) records a child of the store-call span.
type span struct {
	OpID   int64  `json:"op_id"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into spans; -1 for a root
}

type aggregate struct {
	Count   int64   `json:"count"`
	TotalNs float64 `json:"total_ns"`
}

// tracer holds the traced run's spans in memory until the run ends.
// Spans are kept for 1 in traceSample op ids; aggregates cover every op.
type tracer struct {
	t0     time.Time
	spans  []span
	phases []string                 // op_id >> 32 indexes this
	bases  map[string]int64         // phase -> op-id base of its ops
	roots  map[int64]int32          // op_id -> its store-call span
	aggs   map[string]*aggregate    // "layer.name"
	counts map[string]counterDeltas // phase -> counter deltas at its boundaries
}

func newTracer() *tracer {
	return &tracer{
		t0:     time.Now(),
		bases:  make(map[string]int64),
		roots:  make(map[int64]int32),
		aggs:   make(map[string]*aggregate),
		counts: make(map[string]counterDeltas),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// phase registers a phase and returns the op-id base of its ops.
func (t *tracer) phase(name string) int64 {
	t.phases = append(t.phases, name)
	t.bases[name] = int64(len(t.phases)-1) << 32
	return t.bases[name]
}

func sampled(i int) bool { return i&(traceSample-1) == 0 }

// root records the store (or client) call span of an op.
func (t *tracer) root(opID int64, layer, name string, start, end int64) {
	t.spans = append(t.spans, span{opID, layer, name, start, end, -1})
	t.roots[opID] = int32(len(t.spans) - 1)
}

// child records a span under the op's root (or as a root of its own
// when the op was not sampled in its store pass).
func (t *tracer) child(opID int64, layer, name string, start, end int64) {
	parent, ok := t.roots[opID]
	if !ok {
		parent = -1
	}
	t.spans = append(t.spans, span{opID, layer, name, start, end, parent})
}

func (t *tracer) aggregate(layer, name string, count int64, totalNs float64) {
	a := t.aggs[layer+"."+name]
	if a == nil {
		a = &aggregate{}
		t.aggs[layer+"."+name] = a
	}
	a.Count += count
	a.TotalNs += totalNs
}

// aggregateClasses folds a finished phase's per-class totals into the
// aggregates of the layer its calls went into.
func (t *tracer) aggregateClasses(layer string, res *phaseResult) {
	for c := class(0); c < numClasses; c++ {
		if n := res.count(c); n > 0 {
			t.aggregate(layer, classNames[c], int64(n), res.mean(c)*float64(n))
		}
	}
}

// selfTimes is span minus children per sampled root, totalled by
// "phase:layer.name": the trace's own answer to where a call's time went.
func (t *tracer) selfTimes() map[string]*aggregate {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*aggregate)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			continue
		}
		k := t.phases[s.OpID>>32] + ":" + s.Layer + "." + s.Name
		if out[k] == nil {
			out[k] = &aggregate{}
		}
		out[k].Count++
		out[k].TotalNs += float64(s.End - s.Start - child[i])
	}
	return out
}

func (t *tracer) write(path, workload string) error {
	doc := struct {
		Workload   string                   `json:"workload"`
		SampleOf   int                      `json:"span_sample_one_in"`
		Phases     []string                 `json:"phases"`
		Aggregates map[string]*aggregate    `json:"aggregates"`
		SelfTimes  map[string]*aggregate    `json:"sampled_self_times"`
		Counters   map[string]counterDeltas `json:"counters"`
		Spans      []span                   `json:"spans"`
	}{workload, traceSample, t.phases, t.aggs, t.selfTimes(), t.counts, t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
