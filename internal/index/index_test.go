package index

import "testing"

func TestSizesTotal(t *testing.T) {
	s := Sizes{Structure: 10, Keys: 20, Values: 30}
	if s.Total() != 60 {
		t.Fatalf("Total = %d", s.Total())
	}
	var zero Sizes
	if zero.Total() != 0 {
		t.Fatal("zero Sizes should total 0")
	}
}

func TestErrReadOnly(t *testing.T) {
	if ErrReadOnly == nil || ErrReadOnly.Error() == "" {
		t.Fatal("ErrReadOnly not defined")
	}
}

// sliceRanger is a Ranger over a sorted slice (values = keys) that
// records the largest pull a cursor was asked for.
type sliceRanger struct {
	keys    []uint64
	maxPull *int
}

type pullSpy struct {
	Cursor
	maxPull *int
}

func (p pullSpy) Next(keys, vals []uint64) int {
	if len(keys) > *p.maxPull {
		*p.maxPull = len(keys)
	}
	return p.Cursor.Next(keys, vals)
}

func (r sliceRanger) Range(start uint64) Cursor {
	pos := 0
	for pos < len(r.keys) && r.keys[pos] < start {
		pos++
	}
	return pullSpy{NewSliceCursor(r.keys, r.keys, pos), r.maxPull}
}

// plainRanger hands out the pooled slice cursor itself.
type plainRanger []uint64

func (r plainRanger) Range(uint64) Cursor { return NewSliceCursor(r, r, 0) }

func TestScanHelper(t *testing.T) {
	keys := make([]uint64, 100)
	for i := range keys {
		keys[i] = uint64(i) * 2
	}
	maxPull := 0
	r := sliceRanger{keys, &maxPull}
	collect := func(start uint64, n, stopAfter int) []uint64 {
		var got []uint64
		Scan(r, start, n, func(k, v uint64) bool {
			if k != v {
				t.Fatalf("key %d carried value %d", k, v)
			}
			got = append(got, k)
			return len(got) != stopAfter
		})
		return got
	}
	if got := collect(0, 0, -1); len(got) != 100 || got[99] != 198 {
		t.Fatalf("unlimited scan visited %d entries", len(got))
	}
	if got := collect(51, 40, -1); len(got) != 40 || got[0] != 52 || got[39] != 130 {
		t.Fatalf("scan(51, 40) = %v", got)
	}
	if got := collect(190, 40, -1); len(got) != 5 {
		t.Fatalf("scan near the end visited %d entries, want 5", len(got))
	}
	if got := collect(0, 0, 3); len(got) != 3 {
		t.Fatalf("early stop visited %d entries, want 3", len(got))
	}
	if got := collect(199, 0, -1); len(got) != 0 {
		t.Fatalf("scan past the end visited %v", got)
	}
	maxPull = 0
	if got := collect(0, 3, -1); len(got) != 3 || maxPull != 3 {
		t.Fatalf("scan(0, 3) visited %d entries with a pull of %d, want both 3", len(got), maxPull)
	}
	var plain Ranger = plainRanger(keys)
	sum := uint64(0)
	fn := func(k, v uint64) bool { sum += k; return true }
	if a := testing.AllocsPerRun(50, func() { Scan(plain, 10, 50, fn) }); a != 0 {
		t.Fatalf("Scan allocates %v per run", a)
	}
}
