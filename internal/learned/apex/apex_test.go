package apex

import (
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/indextest"
	"learnedpieces/internal/pmem"
)

func newApex() index.Index {
	region := pmem.NewRegion(64<<20, pmem.None())
	ix, err := Create(region, Config{LogCap: 1 << 16})
	if err != nil {
		panic(err)
	}
	return ix
}

func TestConformance(t *testing.T) {
	indextest.Run(t, "apex", func() index.Index { return newApex() })
}

func TestRecoveryFromHeadersOnly(t *testing.T) {
	region := pmem.NewRegion(64<<20, pmem.None())
	ix, err := Create(region, Config{LogCap: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	keys := dataset.Generate(dataset.YCSBNormal, 20000, 3)
	load, inserts := dataset.Split(keys, 5000)
	if err := ix.BulkLoad(load, load); err != nil {
		t.Fatal(err)
	}
	for _, k := range dataset.Shuffled(inserts, 4) {
		if err := ix.Insert(k, k^9); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range load[:50] {
		if !ix.Delete(k) {
			t.Fatalf("delete(%d)", k)
		}
	}
	wantLen := ix.Len()

	// "Crash": all DRAM state is discarded; only the region survives.
	readsBefore := region.AccessStats().Reads
	rec, err := Recover(region)
	if err != nil {
		t.Fatal(err)
	}
	readsAfter := region.AccessStats().Reads
	if rec.Len() != wantLen || rec.Name() != "apex" {
		t.Fatalf("recovered %q, Len = %d, want apex, %d", rec.Name(), rec.Len(), wantLen)
	}
	// Recovery reads headers/log only: far fewer reads than entries.
	if reads := readsAfter - readsBefore; reads > int64(wantLen) {
		t.Fatalf("recovery performed %d PMem reads for %d keys — not header-only", reads, wantLen)
	}
	for _, k := range inserts {
		if v, ok := rec.Get(k); !ok || v != k^9 {
			t.Fatalf("get(%d) = %d,%v after recovery", k, v, ok)
		}
	}
	for _, k := range load[:50] {
		if _, ok := rec.Get(k); ok {
			t.Fatalf("deleted key %d resurrected", k)
		}
	}
}

func TestRecoverRejectsForeignRegion(t *testing.T) {
	region := pmem.NewRegion(1<<20, pmem.None())
	if _, err := Recover(region); err != ErrBadRegion {
		t.Fatalf("got %v, want ErrBadRegion", err)
	}
}

func TestSplitKeepsDirectoryOrdered(t *testing.T) {
	ix := newApex().(*Index)
	keys := dataset.Generate(dataset.OSMLike, 30000, 7)
	for _, k := range dataset.Shuffled(keys, 8) {
		if err := ix.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if ix.NodeCount() < 10 {
		t.Fatalf("expected many nodes, got %d", ix.NodeCount())
	}
	for i := 1; i < len(ix.metas); i++ {
		if ix.metas[i].FirstKey <= ix.metas[i-1].FirstKey {
			t.Fatalf("directory out of order at %d", i)
		}
	}
	for _, k := range keys {
		if v, ok := ix.Get(k); !ok || v != k {
			t.Fatalf("get(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestPMemTrafficCharged(t *testing.T) {
	region := pmem.NewRegion(32<<20, pmem.None())
	ix, err := Create(region, Config{LogCap: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	keys := dataset.Generate(dataset.YCSBNormal, 2000, 9)
	if err := ix.BulkLoad(keys, keys); err != nil {
		t.Fatal(err)
	}
	r0 := region.AccessStats().Reads
	for _, k := range keys[:100] {
		ix.Get(k)
	}
	r1 := region.AccessStats().Reads
	if r1-r0 < 100 {
		t.Fatalf("only %d PMem reads for 100 gets — payload not on PMem?", r1-r0)
	}
}
