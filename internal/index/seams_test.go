package index

import "testing"

// recBulk records bulk loads.
type recBulk struct {
	fakeBase
	got map[uint64]uint64
}

func (r *recBulk) BulkLoad(keys, values []uint64) error {
	for i, k := range keys {
		r.got[k] = values[i]
	}
	return nil
}

func TestSeamsResolution(t *testing.T) {
	if s := Seams(fakeBase{}); s.Upsert == nil || s.Delete != nil || s.Range != nil || s.Batch != nil {
		t.Fatalf("Seams(base) = %+v, want Upsert alone", s)
	}
	s := Seams(fakeFull{})
	if s.Upsert == nil || s.Delete == nil || s.Range == nil {
		t.Fatalf("Seams(full) = %+v, want all resolved", s)
	}
}

func TestLoadSortedBulkPath(t *testing.T) {
	idx := &recBulk{got: map[uint64]uint64{}}
	if err := LoadSorted(idx, []uint64{1, 2, 3}, []uint64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	if idx.got[2] != 20 {
		t.Fatalf("got[2] = %d, want 20", idx.got[2])
	}
}
