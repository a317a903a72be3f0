package bench

import (
	"bytes"
	"strings"
	"testing"
)

// tinyConfig keeps every experiment in test budget.
func tinyConfig(out *bytes.Buffer) Config {
	return Config{
		N:           5_000,
		Sizes:       []int{2_000, 4_000},
		Threads:     []int{1, 2},
		Ops:         5_000,
		Seed:        7,
		PMemLatency: false,
		ValueSize:   64,
		Out:         out,
	}
}

// TestAllExperimentsRun executes every table/figure end to end at tiny
// scale: the regenerators must run and produce non-empty tables.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var out bytes.Buffer
			if err := e.Run(tinyConfig(&out)); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			s := out.String()
			if !strings.Contains(s, "==") {
				t.Fatalf("%s produced no table:\n%s", e.ID, s)
			}
			if len(strings.Split(strings.TrimSpace(s), "\n")) < 4 {
				t.Fatalf("%s produced an empty table:\n%s", e.ID, s)
			}
		})
	}
}

func TestGetExperiment(t *testing.T) {
	if _, ok := Get("fig10"); !ok {
		t.Fatal("fig10 missing")
	}
	if _, ok := Get("fig99"); ok {
		t.Fatal("fig99 found")
	}
	if len(All()) != 22 {
		t.Fatalf("expected 22 experiments, got %d", len(All()))
	}
}

func TestConfigHelpers(t *testing.T) {
	var out bytes.Buffer
	cfg := DefaultConfig(&out)
	if cfg.N <= 0 || cfg.Ops <= 0 || len(cfg.Sizes) == 0 {
		t.Fatal("bad defaults")
	}
	if cfg.latency().ReadNs == 0 {
		t.Fatal("default config should simulate PMem latency")
	}
	cfg.PMemLatency = false
	if cfg.latency().ReadNs != 0 {
		t.Fatal("latency not disabled")
	}
	if len(cfg.value()) != cfg.ValueSize {
		t.Fatal("value size mismatch")
	}
	got := sortedCopy([]string{"b", "a"})
	if got[0] != "a" {
		t.Fatal("sortedCopy broken")
	}
}
