package btree

import (
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/indextest"
)

func TestConformance(t *testing.T) {
	indextest.Run(t, "btree", func() index.Index { return New() })
}

func TestSplitCascade(t *testing.T) {
	// Enough sequential inserts to force multi-level splits.
	tr := New()
	const n = 20000
	for i := 1; i <= n; i++ {
		if err := tr.Insert(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.height < 3 {
		t.Fatalf("expected height >= 3 after %d inserts, got %d", n, tr.height)
	}
	for i := 1; i <= n; i++ {
		if v, ok := tr.Get(uint64(i)); !ok || v != uint64(i) {
			t.Fatalf("get(%d) = %d,%v", i, v, ok)
		}
	}
}

func TestReverseOrderInsert(t *testing.T) {
	tr := New()
	for i := 5000; i >= 1; i-- {
		if err := tr.Insert(uint64(i), uint64(i*2)); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	prev := uint64(0)
	index.Scan(tr, 0, 0, func(k, v uint64) bool {
		if k <= prev && got > 0 {
			t.Fatalf("scan out of order at key %d", k)
		}
		if v != k*2 {
			t.Fatalf("value mismatch at %d", k)
		}
		prev = k
		got++
		return true
	})
	if got != 5000 {
		t.Fatalf("scan visited %d", got)
	}
}

func TestBulkLoadStructure(t *testing.T) {
	tr := New()
	keys := dataset.Generate(dataset.YCSBUniform, 100000, 5)
	if err := tr.BulkLoad(keys, keys); err != nil {
		t.Fatal(err)
	}
	if d := tr.AvgDepth(); d < 1 || d > 6 {
		t.Fatalf("implausible depth %f for 100k keys", d)
	}
	s := tr.Sizes()
	if s.Structure <= 0 || s.Keys <= 0 {
		t.Fatalf("bad sizes %+v", s)
	}
	// B-tree structure for 100k keys should be far smaller than the keys.
	if s.Structure > s.Keys {
		t.Fatalf("inner structure %d larger than key storage %d", s.Structure, s.Keys)
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New()
	keys := dataset.Generate(dataset.YCSBUniform, 1_000_000, 1)
	if err := tr.BulkLoad(keys, keys); err != nil {
		b.Fatal(err)
	}
	probes := dataset.Shuffled(keys, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(probes[i%len(probes)])
	}
}

func BenchmarkInsert(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBUniform, 1_000_000, 3)
	order := dataset.Shuffled(keys, 4)
	b.ResetTimer()
	tr := New()
	for i := 0; i < b.N; i++ {
		k := order[i%len(order)]
		tr.Insert(k, k)
	}
}

// TestFloorAfterMassDeletion empties whole leaves (lazy deletion never
// merges) and checks Floor still finds the true predecessor across the
// emptied range.
func TestFloorAfterMassDeletion(t *testing.T) {
	tr := New()
	keys := dataset.Generate(dataset.Sequential, 10000, 0)
	if err := tr.BulkLoad(keys, keys); err != nil {
		t.Fatal(err)
	}
	// Delete a long contiguous run, emptying many leaves.
	for k := uint64(2000); k <= 7000; k++ {
		if !tr.Delete(k) {
			t.Fatalf("delete(%d)", k)
		}
	}
	for _, probe := range []uint64{2000, 3500, 5000, 6999, 7000} {
		k, v, ok := tr.Floor(probe)
		if !ok || k != 1999 || v != 1999 {
			t.Fatalf("Floor(%d) = (%d,%d,%v), want 1999", probe, k, v, ok)
		}
	}
	// Floor below everything still fails cleanly.
	for k := uint64(1); k <= 100; k++ {
		tr.Delete(k)
	}
	if _, _, ok := tr.Floor(50); ok {
		t.Fatal("Floor(50) should fail with range emptied")
	}
	if k, _, ok := tr.Floor(150); !ok || k != 150 {
		t.Fatalf("Floor(150) = %d,%v", k, ok)
	}
}
