package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
)

// measured is one metric of one run. Value is taken from Samples: the
// median of a one-shot timing's repeats (set), the quartile on the quiet
// side of per-round statistics (setRounds); a metric measured once has
// no samples.
type measured struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// phaseRecord keeps a phase's per-round digests in the result file.
type phaseRecord struct {
	Store   string      `json:"store"`
	Phase   string      `json:"phase"`
	Ops     int         `json:"ops"`
	Failed  int         `json:"failed"`
	Entries int         `json:"entries,omitempty"`
	Rounds  []roundJSON `json:"rounds"`
}

type roundJSON struct {
	Ops     int                  `json:"ops"`
	OpsPerS float64              `json:"ops_per_s"`
	Traced  bool                 `json:"traced,omitempty"`
	Class   map[string]classStat `json:"class"`
}

// runResult is one (workload, trace mode) run.
type runResult struct {
	Workload    string               `json:"workload"`
	Trace       int                  `json:"trace"`
	Fingerprint string               `json:"op_stream_fnv64"`
	Correct     bool                 `json:"correct"`
	Attempted   int                  `json:"attempted"`
	Failed      int                  `json:"failed"`
	Metrics     map[string]*measured `json:"metrics"`
	// Invalid names metrics whose measurement produced no finite number.
	Invalid []string       `json:"invalid_metrics,omitempty"`
	Phases  []*phaseRecord `json:"phases"`
}

func newResult(workload string, trace bool) *runResult {
	r := &runResult{Workload: workload, Metrics: make(map[string]*measured)}
	if trace {
		r.Trace = 1
	}
	return r
}

// units and higherIsBetter index spec.go's metrics by name.
var units, higherIsBetter = func() (map[string]string, map[string]bool) {
	u, h := make(map[string]string), make(map[string]bool)
	for _, e := range endToEnd {
		u[e.name], h[e.name] = e.unit, e.better == "higher"
	}
	for _, l := range perLayer {
		u[l.name], h[l.name] = l.unit, l.better == "higher"
	}
	return u, h
}()

// set records a metric as the median of its samples.
func (r *runResult) set(name string, samples ...float64) {
	m, samples := r.record(name, samples)
	m.Value = median(samples)
}

// setRounds records a metric whose samples are the statistics of a
// phase's rounds, as their quartile on the metric's better side. A
// neighbour on this shared box only ever slows a round, for seconds at
// a time, so the quiet quartile stands for the undisturbed machine
// while up to three rounds in four are disturbed. Between ten-run sets
// it spread as the median did in calm hours and by up to a third less
// in busy ones (README.md).
func (r *runResult) setRounds(name string, samples ...float64) {
	m, samples := r.record(name, samples)
	switch {
	case len(samples) == 1:
		m.Value = samples[0]
	case higherIsBetter[name]:
		m.Value = m.Q3
	default:
		m.Value = m.Q1
	}
}

// record stores a metric's finite samples, which it returns, and their
// quartiles; the caller chooses the value.
func (r *runResult) record(name string, samples []float64) (*measured, []float64) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in spec.go")
	}
	samples = slices.DeleteFunc(slices.Clone(samples), func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) })
	if len(samples) == 0 {
		r.Invalid = append(r.Invalid, name)
		samples = []float64{0}
	}
	m := &measured{Unit: unit, N: len(samples)}
	if len(samples) > 1 {
		m.Samples = samples
		m.Q1, m.Q3 = quartiles(samples)
	}
	r.Metrics[name] = m
	return m, samples
}

func (r *runResult) addPhase(store string, p *phaseResult) {
	rec := &phaseRecord{Store: store, Phase: p.name, Ops: p.ops, Failed: p.failed, Entries: p.entries}
	for _, rs := range p.rounds {
		rj := roundJSON{Ops: rs.Ops, OpsPerS: rs.Rate, Traced: rs.Traced, Class: make(map[string]classStat)}
		for c, cs := range rs.Class {
			if cs.N > 0 {
				rj.Class[classNames[c]] = cs
			}
		}
		rec.Rounds = append(rec.Rounds, rj)
	}
	r.Phases = append(r.Phases, rec)
}

// finish keeps the metrics the run's mode reports — end-to-end metrics
// come only from untraced runs, per-layer metrics only from traced
// ones — and judges the run.
func (r *runResult) finish() {
	keep := make(map[string]bool)
	for _, name := range metricNames(r.Trace == 1) {
		keep[name] = true
	}
	for name := range r.Metrics {
		if !keep[name] {
			delete(r.Metrics, name)
		}
	}
	r.Invalid = slices.DeleteFunc(r.Invalid, func(name string) bool { return !keep[name] })
	r.Correct = r.Failed == 0 && r.Attempted > 0 && len(r.Invalid) == 0 && len(r.Metrics) == len(keep)
}

// metricNames returns the names a run of the given mode reports, in
// spec order.
func metricNames(trace bool) []string {
	var out []string
	if trace {
		for _, l := range perLayer {
			out = append(out, l.name)
		}
	} else {
		for _, e := range endToEnd {
			out = append(out, e.name)
		}
	}
	return out
}

// print writes one line per metric: <workload> <metric> <value> <unit> n=<samples>.
func (r *runResult) print() {
	for _, name := range metricNames(r.Trace == 1) {
		if m := r.Metrics[name]; m != nil {
			fmt.Printf("%s %s %.6g %s n=%d\n", r.Workload, name, m.Value, m.Unit, m.N)
		}
	}
}

// contractLine is the driver's result line.
func (r *runResult) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv)}
	for name, m := range r.Metrics {
		line.Metrics[name] = mv{m.Value, m.Unit}
	}
	data, _ := json.Marshal(line) // set admits finite values only
	return string(data)
}

// header records the environment a result file was produced in. The
// simulated PMem stall is a spin, so latencies are this sandbox's, not a
// device's; nproc says how many cores the closed loops could use.
type header struct {
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	Seed       int64    `json:"seed"`
	Scale      float64  `json:"scale"`
	Seconds    float64  `json:"seconds"`
	Keys       int      `json:"keys"`
	Dataset    string   `json:"dataset"`
	ValueBytes int      `json:"value_bytes"`
	Region     string   `json:"region"`
	Primary    string   `json:"primary_index"`
	Panels     []string `json:"panel_indexes"`
	Loop       string   `json:"loop"`
}

type resultFile struct {
	Header header       `json:"header"`
	Runs   []*runResult `json:"runs"`
}

// commit is set by run.sh through -ldflags; the driver's checkout is
// not a git repository, so it stays "unknown" there.
var commit = "unknown"

func newHeader(o options) header {
	return header{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Seed:       o.seed,
		Scale:      o.scale,
		Seconds:    o.seconds,
		Keys:       o.keys(),
		Dataset:    "dataset.OSMLike",
		ValueBytes: valueSize,
		Region:     "pmem.Optane() (stall is a spin: latencies are the sandbox's)",
		Primary:    primaryIndex,
		Panels:     panelIndexes,
		Loop:       fmt.Sprintf("closed; in-process 1 goroutine; wire %d connections x %d frames in flight", wireConns, wireBurst),
	}
}

func writeResults(dir string, f *resultFile) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), data, 0o644)
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
