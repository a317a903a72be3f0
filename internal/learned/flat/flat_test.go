package flat

import (
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/indextest"
)

func TestReadOnlyConformance(t *testing.T) {
	indextest.Run(t, "rmi", func() index.Index { return NewRMI(RMIConfig{}) })
	indextest.Run(t, "rs", func() index.Index { return NewRS(RSConfig{}) })
}

func TestLeafAssignmentContiguous(t *testing.T) {
	ix := NewRMI(RMIConfig{NumLeaves: 64})
	keys := dataset.Generate(dataset.OSMLike, 30000, 4)
	if err := ix.BulkLoad(keys, keys); err != nil {
		t.Fatal(err)
	}
	// Every key must fall inside the leaf the root predicts for it and the
	// recorded error band must cover its true position (this is the
	// invariant that makes bounded binary search correct).
	for i, k := range keys {
		if lo, hi := ix.model.Window(k); i < lo || i >= hi {
			t.Fatalf("key %d: position %d outside band [%d,%d)", k, i, lo, hi)
		}
	}
}

func TestTinyAndSingleLeaf(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		ix := NewRMI(RMIConfig{NumLeaves: 1})
		keys := dataset.Generate(dataset.Sequential, n, 0)
		if err := ix.BulkLoad(keys, keys); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if v, ok := ix.Get(k); !ok || v != k {
				t.Fatalf("n=%d: get(%d) = %d,%v", n, k, v, ok)
			}
		}
	}
}

func TestMaxLeafErrorUnbounded(t *testing.T) {
	// RMI gives no a-priori bound; on complex data with few leaves the
	// measured band should be clearly nonzero (sanity of the metric).
	ix := NewRMI(RMIConfig{NumLeaves: 4})
	keys := dataset.Generate(dataset.OSMLike, 20000, 8)
	if err := ix.BulkLoad(keys, keys); err != nil {
		t.Fatal(err)
	}
	if ix.model.MaxLeafError() == 0 {
		t.Fatal("expected nonzero leaf error on OSM-like keys with 4 leaves")
	}
}

func BenchmarkGet(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBNormal, 1_000_000, 1)
	probes := dataset.Shuffled(keys, 2)
	rmi, rs := NewRMI(RMIConfig{}), NewRS(RSConfig{})
	for _, ix := range []index.Index{rmi, rs} {
		if err := ix.BulkLoad(keys, keys); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("rmi", func(b *testing.B) { benchGet(b, rmi, probes) })
	b.Run("rs", func(b *testing.B) { benchGet(b, rs, probes) })
}

// benchGet times Get on the concrete index, with no interface call in
// the loop.
func benchGet[M Model](b *testing.B, ix *Index[M], probes []uint64) {
	for i := 0; i < b.N; i++ {
		ix.Get(probes[i%len(probes)])
	}
}
