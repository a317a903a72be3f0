package index

import "testing"

// fakeBase implements only the mandatory Index interface.
type fakeBase struct{}

func (fakeBase) Name() string                         { return "fake" }
func (fakeBase) Get(uint64) (uint64, bool)            { return 0, false }
func (fakeBase) Insert(key, value uint64) error       { return nil }
func (fakeBase) Len() int                             { return 0 }
func (fakeBase) BulkLoad(keys, values []uint64) error { return nil }
func (fakeBase) Sizes() Sizes                         { return Sizes{Structure: 1} }

func (fakeBase) InsertReplace(k, v uint64) (bool, error) { return false, nil }

// fakeFull implements every optional interface.
type fakeFull struct {
	fakeBase
}

func (fakeFull) Range(uint64) Cursor          { return NewSliceCursor(nil, nil, 0) }
func (fakeFull) Delete(uint64) bool           { return false }
func (fakeFull) AvgDepth() float64            { return 2 }
func (fakeFull) RetrainStats() (int64, int64) { return 3, 4 }
func (fakeFull) ConcurrentWrites() bool       { return false }

// fakeCapser overrides interface probing entirely.
type fakeCapser struct{ fakeFull }

func (fakeCapser) Caps() Caps { return Caps{Range: true} }

func TestCapsOfBase(t *testing.T) {
	if got := CapsOf(fakeBase{}); got != (Caps{}) {
		t.Fatalf("CapsOf(base) = %+v, want no capability", got)
	}
}

func TestCapsOfFull(t *testing.T) {
	got := CapsOf(fakeFull{})
	want := Caps{
		Range: true, Delete: true, Depth: true, Retrain: true,
		ConcurrentWrites: false,
	}
	if got != want {
		t.Fatalf("CapsOf(full) = %+v, want %+v", got, want)
	}
}

// scanMasked has a Range method its composition cannot honour; Capser is
// the only protocol for masking it, so Caps must come back with Range
// cleared even though the Ranger interface is satisfied.
type scanMasked struct{ fakeFull }

func (m scanMasked) Caps() Caps {
	c := CapsOf(m.fakeFull)
	c.Range = false
	return c
}

func TestCapsOfFoldsScanChecker(t *testing.T) {
	if _, ok := interface{}(scanMasked{}).(Ranger); !ok {
		t.Fatal("scanMasked must still satisfy Ranger for the test to mean anything")
	}
	if CapsOf(scanMasked{}).Range {
		t.Fatal("Capser masking must clear Caps.Range despite the Range method")
	}
	if !CapsOf(fakeFull{}).Range {
		t.Fatal("unmasked Ranger must report Caps.Range")
	}
}

func TestCapsOfPrefersCapser(t *testing.T) {
	got := CapsOf(fakeCapser{})
	if got != (Caps{Range: true}) {
		t.Fatalf("CapsOf(capser) = %+v, want Caps{Range:true}", got)
	}
}

func TestHelperExtractors(t *testing.T) {
	full := fakeFull{}
	if sz, ok := SizesOf(full); !ok || sz.Structure != 1 {
		t.Fatalf("SizesOf = %+v,%v", sz, ok)
	}
	if d, ok := DepthOf(full); !ok || d != 2 {
		t.Fatalf("DepthOf = %v,%v", d, ok)
	}
	if c, ns, ok := RetrainStatsOf(full); !ok || c != 3 || ns != 4 {
		t.Fatalf("RetrainStatsOf = %d,%d,%v", c, ns, ok)
	}
	base := fakeBase{}
	if _, ok := DepthOf(base); ok {
		t.Fatal("DepthOf(base) should report false")
	}
	if _, _, ok := RetrainStatsOf(base); ok {
		t.Fatal("RetrainStatsOf(base) should report false")
	}
}
