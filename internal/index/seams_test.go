package index

import "testing"

// recBase records inserts, implementing only the mandatory interface.
type recBase struct {
	fakeBase
	got map[uint64]uint64
}

func (r *recBase) Insert(key, value uint64) error {
	r.got[key] = value
	return nil
}

// recBulk additionally records bulk loads.
type recBulk struct {
	recBase
	bulked bool
}

func (r *recBulk) BulkLoad(keys, values []uint64) error {
	r.bulked = true
	for i, k := range keys {
		r.got[k] = values[i]
	}
	return nil
}

func TestSeamsResolution(t *testing.T) {
	if s := Seams(fakeBase{}); s.Upsert == nil || s.Delete != nil || s.Range != nil || s.Bulk != nil {
		t.Fatalf("Seams(base) = %+v, want Upsert alone", s)
	}
	s := Seams(fakeFull{})
	if s.Upsert == nil || s.Delete == nil || s.Range == nil || s.Bulk == nil {
		t.Fatalf("Seams(full) = %+v, want all resolved", s)
	}
}

func TestLoadSortedBulkPath(t *testing.T) {
	idx := &recBulk{recBase: recBase{got: map[uint64]uint64{}}}
	if err := LoadSorted(idx, []uint64{1, 2, 3}, []uint64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	if !idx.bulked {
		t.Fatal("LoadSorted must prefer the bulk path")
	}
	if idx.got[2] != 20 {
		t.Fatalf("got[2] = %d, want 20", idx.got[2])
	}
}

func TestLoadSortedInsertFallback(t *testing.T) {
	idx := &recBase{got: map[uint64]uint64{}}
	if err := LoadSorted(idx, []uint64{4, 5}, nil); err != nil {
		t.Fatal(err)
	}
	if len(idx.got) != 2 || idx.got[4] != 0 || idx.got[5] != 0 {
		t.Fatalf("insert fallback got %v, want keys 4,5 -> 0", idx.got)
	}
}
