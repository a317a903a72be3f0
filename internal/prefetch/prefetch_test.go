package prefetch

import "testing"

// TestSliceBounds calls Slice on every edge a caller can pass: nil and
// empty slices (nothing to fetch, no element to take an address of), a
// single element, and windows ending at the backing array's last byte,
// including a zero-length one there. A wrong bound shows as a panic or
// a fault; a prefetch itself never faults.
func TestSliceBounds(t *testing.T) {
	var nilWords []uint64
	words := make([]uint64, 129)
	bytes := make([]byte, 4097)
	kids := make([]interface{}, 33)
	Slice(nilWords)
	Slice([]byte(nil))
	Slice(words[:0])
	Slice(words[len(words):])
	Slice(words[:1])
	Slice(words[len(words)-1:])
	Slice(words)
	Slice(words[64:])
	Slice(bytes[len(bytes)-1:])
	Slice(bytes[1:])
	Slice(kids[len(kids)-1:])
	Slice(kids)
	if testing.AllocsPerRun(100, func() { Slice(words[3:100]) }) != 0 {
		t.Fatal("Slice allocates")
	}
}
