package viper

import (
	"bytes"
	"fmt"
	"testing"

	"learnedpieces/internal/core"
	"learnedpieces/internal/index"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/telemetry"
)

// fitingBuf is the registry's FITing-tree buffer preset: its leaf
// rebuilds run on the store's retrain pool in async mode.
func fitingBuf() index.Index {
	e, _ := core.Lookup("fiting-buf")
	return e.New()
}

// TestParseRetrainMode: every spelling the CLIs' -retrain flag accepts
// parses to its mode, and any other is refused.
func TestParseRetrainMode(t *testing.T) {
	for _, c := range []struct {
		in   string
		want RetrainMode
		ok   bool
	}{
		{"inline", RetrainInline, true},
		{"async", RetrainAsync, true},
		{"", RetrainInline, false},
		{"Async", RetrainInline, false},
		{"background", RetrainInline, false},
	} {
		if got, ok := ParseRetrainMode(c.in); got != c.want || ok != c.ok {
			t.Errorf("ParseRetrainMode(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

// TestRetrainModes runs the same workload under every retrain mode and
// checks the store reads back identically; async additionally must
// report background executions in the pool stats.
func TestRetrainModes(t *testing.T) {
	for _, mode := range []RetrainMode{RetrainInline, RetrainAsync} {
		mode := mode
		t.Run(fmt.Sprintf("mode-%d", mode), func(t *testing.T) {
			region := pmem.NewRegion(64<<20, pmem.None())
			sink := telemetry.New()
			store := Open(region, fitingBuf(),
				WithRetrainMode(mode), WithTelemetry(sink))
			ref := make(map[uint64][]byte)
			for i := uint64(1); i <= 6000; i++ {
				k := i * 2654435761 % 100000
				v := []byte(fmt.Sprintf("v%d-%d", k, i))
				if err := store.Put(k, v); err != nil {
					t.Fatal(err)
				}
				ref[k] = v
			}
			store.DrainRetrains()
			if store.Len() != len(ref) {
				t.Fatalf("Len = %d, want %d", store.Len(), len(ref))
			}
			for k, v := range ref {
				got, ok := store.Get(k)
				if !ok || !bytes.Equal(got, v) {
					t.Fatalf("get(%d) = %q,%v want %q", k, got, ok, v)
				}
			}
			snap := sink.Snapshot()
			switch mode {
			case RetrainInline:
				if snap.Retrain.Submitted != 0 {
					t.Fatalf("inline mode submitted %d pool tasks", snap.Retrain.Submitted)
				}
			case RetrainAsync:
				if snap.Retrain.Executed <= snap.Retrain.Inline {
					t.Fatalf("async mode ran nothing in the background: %+v", snap.Retrain)
				}
			}
		})
	}
}

// TestRecoverWithPendingRetrains crashes the store while background
// retrains are still queued: recovery scans PMem (which every Put
// already reached) and must rebuild complete state; the stale deposits
// of the dropped index must never surface.
func TestRecoverWithPendingRetrains(t *testing.T) {
	region := pmem.NewRegion(64<<20, pmem.None())
	store := Open(region, fitingBuf(),
		WithRetrainMode(RetrainAsync))
	ref := make(map[uint64][]byte)
	for i := uint64(1); i <= 8000; i++ {
		k := i * 2654435761 % 200000
		v := []byte(fmt.Sprintf("v%d-%d", k, i))
		if err := store.Put(k, v); err != nil {
			t.Fatal(err)
		}
		ref[k] = v
	}
	// Crash without draining: the DRAM index (and whatever retrains it
	// still had in flight) is discarded.
	store.DropIndex(fitingBuf())
	if err := store.Recover(fitingBuf()); err != nil {
		t.Fatal(err)
	}
	if store.Len() != len(ref) {
		t.Fatalf("recovered %d keys, want %d", store.Len(), len(ref))
	}
	for k, v := range ref {
		got, ok := store.Get(k)
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("get(%d) = %q,%v want %q", k, got, ok, v)
		}
	}
	// The recovered index inherits the pool: further Puts retrain in the
	// background again and the store still reads back correctly.
	for i := uint64(1); i <= 4000; i++ {
		k := i*2654435761%200000 + 300000
		v := []byte(fmt.Sprintf("p%d", i))
		if err := store.Put(k, v); err != nil {
			t.Fatal(err)
		}
		ref[k] = v
	}
	store.DrainRetrains()
	for k, v := range ref {
		got, ok := store.Get(k)
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("post-recovery get(%d) = %q,%v want %q", k, got, ok, v)
		}
	}
}
