package pla

import (
	"encoding/binary"
	"math"
	"testing"

	"learnedpieces/internal/dataset"
)

// decodeKeys turns fuzz bytes into a sorted distinct key set.
func decodeKeys(data []byte) []uint64 {
	keys := make([]uint64, 0, len(data)/8)
	for i := 0; i+8 <= len(data); i += 8 {
		keys = append(keys, binary.LittleEndian.Uint64(data[i:]))
	}
	return dataset.SortedUnique(keys)
}

// FuzzOptPLABound fuzzes the optimal PLA: the guaranteed max error must
// hold for arbitrary key sets and eps values.
func FuzzOptPLABound(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0}, uint8(4))
	seed := dataset.Generate(dataset.OSMLike, 64, 3)
	buf := make([]byte, 8*len(seed))
	for i, k := range seed {
		binary.LittleEndian.PutUint64(buf[i*8:], k)
	}
	f.Add(buf, uint8(16))
	f.Fuzz(func(t *testing.T, data []byte, epsRaw uint8) {
		keys := decodeKeys(data)
		if len(keys) == 0 || len(keys) > 4096 {
			return
		}
		eps := int(epsRaw % 64)
		segs := BuildOptPLA(keys, eps)
		m := Evaluate(keys, segs)
		if m.MaxErr > eps+segErrTolerance {
			t.Fatalf("max err %d > eps %d (+%d)", m.MaxErr, eps, segErrTolerance)
		}
		if segs[0].Start != 0 || segs[len(segs)-1].End != len(keys) {
			t.Fatal("segments do not cover the keys")
		}
	})
}

// FuzzModelPredict fuzzes the one key->position line: every answer is in
// [0, n), answers never decrease as the key grows when Slope >= 0, and
// inside the range the answer is the plain int(Slope*d + Intercept).
func FuzzModelPredict(f *testing.F) {
	for _, anchor := range []uint64{0, math.MaxUint64} {
		for _, key := range []uint64{0, math.MaxUint64, 1<<60 + 1, 1<<60 + 2} {
			f.Add(anchor, 0.5, 3.0, uint16(15), key, key+1)
			f.Add(anchor, 1e-18, -2.0, uint16(100), key, ^key)
		}
	}
	f.Add(uint64(1000), 0.01, 0.0, uint16(100), uint64(10), uint64(1500))
	f.Fuzz(func(t *testing.T, anchor uint64, slope, intercept float64, nRaw uint16, k1, k2 uint64) {
		m := Model{FirstKey: anchor, Slope: slope, Intercept: intercept}
		n := int(nRaw%1024) + 1
		p1, p2 := m.Predict(k1, n), m.Predict(k2, n)
		for _, p := range []int{p1, p2} {
			if p < 0 || p >= n {
				t.Fatalf("%+v: prediction %d outside [0, %d)", m, p, n)
			}
		}
		if slope >= 0 && (k1 < k2 && p1 > p2 || k2 < k1 && p2 > p1) {
			t.Fatalf("%+v, n=%d: key %d -> %d but key %d -> %d", m, n, k1, p1, k2, p2)
		}
		d := float64(k1 - anchor)
		if k1 < anchor {
			d = -float64(anchor - k1)
		}
		if v := slope*d + intercept; v > -1 && v < float64(n) && p1 != int(v) {
			t.Fatalf("%+v, n=%d: key %d -> %d, want int(%v) = %d", m, n, k1, p1, v, int(v))
		}
	})
}

// gapOps encodes an op stream for FuzzGappedNode: nine bytes per op, the
// key then the op selector.
func gapOps(ops ...[2]uint64) []byte {
	buf := make([]byte, 0, 9*len(ops))
	for _, o := range ops {
		buf = binary.LittleEndian.AppendUint64(buf, o[0])
		buf = append(buf, byte(o[1]))
	}
	return buf
}

func keyBytes(keys ...uint64) []byte {
	buf := make([]byte, 0, 8*len(keys))
	for _, k := range keys {
		buf = binary.LittleEndian.AppendUint64(buf, k)
	}
	return buf
}

const (
	gapUpsert = iota // InsertReplace, live or not
	gapRemove
)

// checkBitmapScans compares the four word-at-a-time scans with a slot by
// slot walk of Has, at every slot and one past either end.
func checkBitmapScans(t *testing.T, b Bitmap, n int) {
	t.Helper()
	nextSet, nextClear := n, n
	for i := n; i >= -1; i-- {
		if i >= 0 && i < n {
			if b.Has(i) {
				nextSet = i
			} else {
				nextClear = i
			}
		}
		if got := b.NextSet(max(i, 0), n); got != nextSet {
			t.Fatalf("NextSet(%d) = %d, want %d (%b)", i, got, nextSet, b)
		}
		if got := b.NextClear(max(i, 0), n); got != nextClear {
			t.Fatalf("NextClear(%d) = %d, want %d (%b)", i, got, nextClear, b)
		}
	}
	prevSet, prevClear := -1, -1
	for i := -1; i < n; i++ {
		if i >= 0 {
			if b.Has(i) {
				prevSet = i
			} else {
				prevClear = i
			}
		}
		if got := b.PrevSet(i); got != prevSet {
			t.Fatalf("PrevSet(%d) = %d, want %d (%b)", i, got, prevSet, b)
		}
		if got := b.PrevClear(i); got != prevClear {
			t.Fatalf("PrevClear(%d) = %d, want %d (%b)", i, got, prevClear, b)
		}
	}
}

// FuzzGappedNode fuzzes the ALEX gap representation: build from a key
// set, apply an op stream (upserts and removes), and check the
// bitmap scans after every op and the invariant plus lookups at the end.
func FuzzGappedNode(f *testing.F) {
	f.Add(keyBytes(8, 32), []byte{1, 2, 3})
	// A 300-slot fully packed run (the far key flattens the model, so the
	// cluster lands on consecutive slots up to the node's end) with an
	// insert in its middle: the memmove path, 151 slots to the gap on the
	// left.
	packed := make([]uint64, 0, 301)
	for i := uint64(0); i < 300; i++ {
		packed = append(packed, 1000+2*i)
	}
	f.Add(keyBytes(append(packed, 1<<40)...), gapOps([2]uint64{1301, gapUpsert}, [2]uint64{1299, gapUpsert}))
	// {10, 20, 30} builds into slots 0, 2, 4 of 6. Emptying slot 0 and
	// filling 1, 3, 5 leaves the only gap at slot 0: the last insert shifts
	// the whole node left.
	f.Add(keyBytes(10, 20, 30), gapOps([2]uint64{10, gapRemove}, [2]uint64{15, gapUpsert},
		[2]uint64{25, gapUpsert}, [2]uint64{35, gapUpsert}, [2]uint64{40, gapUpsert}))
	// Filling 1 and 3 leaves the only gap at the last slot: inserting below
	// every key shifts the whole node right.
	f.Add(keyBytes(10, 20, 30), gapOps([2]uint64{15, gapUpsert}, [2]uint64{25, gapUpsert}, [2]uint64{5, gapUpsert}))
	// Key 0 shares its value with the never-filled leading gaps.
	f.Add(keyBytes(0, 7, 90), gapOps([2]uint64{0, gapUpsert}, [2]uint64{0, gapRemove}, [2]uint64{0, gapRemove},
		[2]uint64{0, gapUpsert}, [2]uint64{3, gapUpsert}, [2]uint64{0, gapRemove}, [2]uint64{0, gapUpsert}))
	f.Fuzz(func(t *testing.T, data []byte, ops []byte) {
		keys := decodeKeys(data)
		if len(keys) == 0 || len(keys) > 512 {
			return
		}
		g := BuildLSAGap(keys, keys, 0.6)
		checkBitmapScans(t, g.Occ, g.Capacity())
		live := make(map[uint64]uint64, len(keys))
		for _, k := range keys {
			live[k] = k
		}
		var work InsertWork
		for i := 0; i+8 < len(ops); i += 9 {
			k := binary.LittleEndian.Uint64(ops[i:])
			v := k ^ uint64(i)
			_, isLive := live[k]
			switch ops[i+8] % 2 {
			case gapUpsert:
				existed, ok := g.InsertReplace(k, v, &work)
				if existed != isLive || ok != (isLive || len(live) < g.Capacity()) {
					t.Fatalf("InsertReplace(%d) = %v,%v with live=%v, %d/%d slots", k, existed, ok, isLive, len(live), g.Capacity())
				}
				if ok {
					live[k] = v
				}
			case gapRemove:
				slot, ok := g.SlotOf(k)
				if ok != isLive {
					t.Fatalf("SlotOf(%d) = %v, live %v", k, ok, isLive)
				}
				g.Remove(slot)
				delete(live, k)
			}
			checkBitmapScans(t, g.Occ, g.Capacity())
		}
		checkGapInvariant(t, g)
		if g.NumKeys != len(live) {
			t.Fatalf("counts diverge: NumKeys %d, ref %d", g.NumKeys, len(live))
		}
		if work.MaxShift >= int64(g.Capacity()) || work.Shifted > work.GapSearch {
			t.Fatalf("work %+v on %d slots", work, g.Capacity())
		}
		for k, v := range live {
			if slot, ok := g.SlotOf(k); !ok || g.Values[slot] != v {
				t.Fatalf("live key %d -> (%d,%v), want value %d", k, slot, ok, v)
			}
		}
		checkSeeks(t, g)
	})
}
