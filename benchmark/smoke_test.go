package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// smokeOptions is every workload at a hundredth of the dataset and a
// fraction of a second: enough to execute every phase and every metric.
func smokeOptions(t *testing.T, seed int64, trace bool) options {
	return options{seed: seed, seconds: 0.3, scale: 0.01, trace: trace, outDir: t.TempDir()}
}

// benchmarkJSON is the driver's contract file at the repository root.
type benchmarkJSON struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestContractMatchesSpec fails when BENCHMARK.json and spec.go name
// different workloads or metrics.
func TestContractMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q, spec.go %q", i, c.Workloads[i].Name, w.name)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec.go %d", len(c.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := c.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, spec.go %+v", i, got, m)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec.go %d", len(c.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := c.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, spec.go %+v", i, got, m)
		}
	}
}

// TestSmoke runs all four workloads, untraced and traced, and checks
// that every metric of the mode appears exactly once with a finite
// value, that nothing unnamed appears, and that every answer was right.
func TestSmoke(t *testing.T) {
	for _, trace := range []bool{false, true} {
		want := make(map[string]bool)
		for _, name := range metricNames(trace) {
			want[name] = true
		}
		for i := range workloads {
			w := &workloads[i]
			res, err := runWorkload(w, smokeOptions(t, 1, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.Failed != 0 || !res.Correct {
				t.Errorf("%s trace=%v: %d of %d failed, invalid metrics %v", w.name, trace, res.Failed, res.Attempted, res.Invalid)
			}
			for name, m := range res.Metrics {
				if !want[name] {
					t.Errorf("%s trace=%v: unnamed metric %s", w.name, trace, name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, name, m.Value)
				}
			}
			for name := range want {
				if res.Metrics[name] == nil {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, name)
				}
			}
			if trace {
				if m := res.Metrics["epoch.pending_after_drain"]; m != nil && m.Value != 0 {
					t.Errorf("%s: %v frees still pending after the drain", w.name, m.Value)
				}
			} else {
				for _, m := range endToEnd {
					if got := res.Metrics[m.name]; got != nil && got.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, got.Value)
					}
				}
			}
		}
	}
}

// TestInputsFollowSeed: the same seed gives the same op streams, another
// seed gives others.
func TestInputsFollowSeed(t *testing.T) {
	fingerprint := func(seed int64) string {
		res, err := runWorkload(workloadByName("write-mixed"), smokeOptions(t, seed, false))
		if err != nil {
			t.Fatal(err)
		}
		return res.Fingerprint
	}
	a, b, c := fingerprint(1), fingerprint(1), fingerprint(2)
	if a != b {
		t.Errorf("seed 1 gave op streams %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 gave the same op stream %s", a)
	}
}

// TestCompareVerdicts covers -compare's three verdicts.
func TestCompareVerdicts(t *testing.T) {
	write := func(ops float64, samples []float64) string {
		res := newResult("read-uniform", false)
		res.set("ops_per_s", samples...)
		res.Metrics["ops_per_s"].Value = ops
		path := t.TempDir() + "/result.json"
		if err := writeResults(t.TempDir(), &resultFile{}); err != nil {
			t.Fatal(err)
		}
		data, _ := json.Marshal(&resultFile{Runs: []*runResult{res}})
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{99, 100, 100, 101}
	noisy := []float64{60, 90, 110, 140}
	base := write(100, steady)
	for _, tc := range []struct {
		name      string
		path      string
		regressed bool
	}{
		{"same", write(100, steady), false},
		{"slower, steady", write(60, steady), true},
		{"slower, noisy", write(60, noisy), false},
		{"faster", write(130, steady), false},
	} {
		got, err := compareFiles(os.Stderr, base, tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.regressed {
			t.Errorf("%s: regressed = %v, want %v", tc.name, got, tc.regressed)
		}
	}
}

// TestRoundsTakeTheQuietQuartile: a timing metric is the quartile of
// its rounds on the metric's better side, as Python's
// statistics.quantiles(n=4) places it.
func TestRoundsTakeTheQuietQuartile(t *testing.T) {
	rounds := []float64{8, 1, 5, 2, 7, 3, 6, 4}
	res := newResult("read-uniform", false)
	res.setRounds("get_p50_ns", rounds...)
	res.setRounds("ops_per_s", rounds...)
	res.setRounds("put_p50_ns", 9)
	for name, want := range map[string]float64{"get_p50_ns": 2.25, "ops_per_s": 6.75, "put_p50_ns": 9} {
		if got := res.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
