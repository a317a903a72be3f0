package cceh

import (
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/indextest"
)

func TestConformance(t *testing.T) {
	indextest.RunAll(t, "cceh", func() index.Index { return New() })
}

// TestConcurrentConformance holds Table I's claim that CCEH takes
// concurrent writers, behind its one lock.
func TestConcurrentConformance(t *testing.T) {
	indextest.RunConcurrent(t, "cceh", func() index.Index { return New() })
}

func TestDirectoryDoubling(t *testing.T) {
	m := New()
	keys := dataset.Generate(dataset.YCSBUniform, 50000, 3)
	for _, k := range keys {
		if err := m.Insert(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	if m.globalDepth < 3 {
		t.Fatalf("directory never grew: depth %d", m.globalDepth)
	}
	for _, k := range keys {
		if v, ok := m.Get(k); !ok || v != k+1 {
			t.Fatalf("get(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestTombstoneProbeChains(t *testing.T) {
	// Force keys into shared probe chains, delete the head, and verify
	// chain members remain reachable.
	m := New()
	var chain []uint64
	base := hash(12345) & (numBuckets - 1)
	for k := uint64(0); len(chain) < 6; k++ {
		if hash(k)&(numBuckets-1) == base {
			chain = append(chain, k)
		}
	}
	for _, k := range chain {
		if err := m.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Delete(chain[0]) {
		t.Fatal("delete failed")
	}
	for _, k := range chain[1:] {
		if _, ok := m.Get(k); !ok {
			t.Fatalf("key %d lost after tombstoning chain head", k)
		}
	}
	// Slot reuse.
	if err := m.Insert(chain[0], 77); err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Get(chain[0]); !ok || v != 77 {
		t.Fatalf("reinsert after tombstone: %d,%v", v, ok)
	}
}
