package art

import (
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/indextest"
)

func TestConformance(t *testing.T) {
	indextest.Run(t, "art", func() index.Index { return New() })
}

func TestNodeGrowth(t *testing.T) {
	// Keys sharing 7 prefix bytes force one node through 4->16->48->256.
	tr := New()
	for b := 0; b < 256; b++ {
		k := uint64(0xAA<<56) | uint64(b)
		if err := tr.Insert(k, uint64(b)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 256 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for b := 0; b < 256; b++ {
		k := uint64(0xAA<<56) | uint64(b)
		if v, ok := tr.Get(k); !ok || v != uint64(b) {
			t.Fatalf("get(%x) = %d,%v", k, v, ok)
		}
	}
	// Ordered scan across the wide node.
	prev := -1
	index.Scan(tr, 0, 0, func(k, v uint64) bool {
		if int(v) <= prev {
			t.Fatalf("scan out of order: %d after %d", v, prev)
		}
		prev = int(v)
		return true
	})
}

func TestPathCompressionSplit(t *testing.T) {
	tr := New()
	// Two keys sharing a long prefix create a compressed path; a third key
	// diverging mid-prefix must split it.
	a := uint64(0x1122334455667788)
	b := uint64(0x1122334455667799)
	c := uint64(0x1122FF0000000000)
	for _, k := range []uint64{a, b} {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Insert(c, c); err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{a, b, c} {
		if v, ok := tr.Get(k); !ok || v != k {
			t.Fatalf("get(%x) = %x,%v", k, v, ok)
		}
	}
	// Keys that walk the compressed path but diverge must miss.
	if _, ok := tr.Get(0x1122334455667777); ok {
		t.Fatal("phantom key found")
	}
	if _, ok := tr.Get(0x1123000000000000); ok {
		t.Fatal("phantom key found in split prefix")
	}
}

func TestAvgDepthShallow(t *testing.T) {
	tr := New()
	keys := dataset.Generate(dataset.YCSBUniform, 50000, 9)
	if err := tr.BulkLoad(keys, keys); err != nil {
		t.Fatal(err)
	}
	if d := tr.AvgDepth(); d <= 0 || d > 8 {
		t.Fatalf("implausible ART depth %f", d)
	}
}

// TestNode48ReinsertAfterDelete: a node48 that lost a child from the
// middle of its child array takes the next insert in the freed slot, not
// on top of a live sibling.
func TestNode48ReinsertAfterDelete(t *testing.T) {
	tr := New()
	for b := uint64(0); b < 30; b++ { // one node48 under a 7-byte prefix
		if err := tr.Insert(b, b); err != nil {
			t.Fatal(err)
		}
	}
	if !tr.Delete(5) {
		t.Fatal("delete(5) = false")
	}
	if err := tr.Insert(100, 100); err != nil {
		t.Fatal(err)
	}
	for b := uint64(0); b < 30; b++ {
		if v, ok := tr.Get(b); ok != (b != 5) || (ok && v != b) {
			t.Fatalf("get(%d) = %d,%v after delete(5) and insert(100)", b, v, ok)
		}
	}
	if v, ok := tr.Get(100); !ok || v != 100 {
		t.Fatalf("get(100) = %d,%v", v, ok)
	}
}
