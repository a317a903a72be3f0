package pla

import (
	"testing"

	"learnedpieces/internal/dataset"
)

func TestRadixTableInvariant(t *testing.T) {
	ix := NewRadixSpline(10, 16)
	keys := dataset.Generate(dataset.YCSBUniform, 50000, 2)
	ix.Build(keys)
	// table[p] must be non-decreasing and bounded by the knot count.
	for p := 1; p < len(ix.table); p++ {
		if ix.table[p] < ix.table[p-1] {
			t.Fatalf("table not monotone at %d", p)
		}
	}
	if int(ix.table[len(ix.table)-1]) != len(ix.spline) {
		t.Fatalf("table terminator %d != knots %d", ix.table[len(ix.table)-1], len(ix.spline))
	}
}

// TestFaceSkewWindow reproduces the Fig 11 mechanism: on FACE-like keys
// the high-bit radix prefix is nearly useless, so the per-lookup spline
// search window is far wider than on uniform keys.
func TestFaceSkewWindow(t *testing.T) {
	build := func(kind dataset.Kind) *RadixSpline {
		ix := NewRadixSpline(16, 32)
		keys := dataset.Generate(kind, 100000, 3)
		ix.Build(keys)
		return ix
	}
	uni := build(dataset.YCSBUniform)
	face := build(dataset.FACELike)
	wu, wf := uni.TableWindow(), face.TableWindow()
	if wf < wu*4 {
		t.Fatalf("FACE window %.1f not much wider than uniform %.1f", wf, wu)
	}
}

func TestRadixBitsCappedForSmallSets(t *testing.T) {
	ix := NewRadixSpline(18, 8)
	keys := dataset.Generate(dataset.YCSBUniform, 100, 4)
	ix.Build(keys)
	if len(ix.table) > 256 {
		t.Fatalf("radix table %d entries for 100 keys", len(ix.table))
	}
	for i, k := range keys {
		if lo, hi := ix.Window(k); i < lo || i >= hi {
			t.Fatalf("key %d: position %d outside window [%d,%d)", k, i, lo, hi)
		}
	}
}
