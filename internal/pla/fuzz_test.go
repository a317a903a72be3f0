package pla

import (
	"encoding/binary"
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

// FuzzGappedNode fuzzes the ALEX gap representation: build from a key
// set, apply an op stream (inserts/removes), and check the invariant
// plus lookups throughout.
func FuzzGappedNode(f *testing.F) {
	f.Add([]byte{8, 0, 0, 0, 0, 0, 0, 0, 32, 0, 0, 0, 0, 0, 0, 0}, []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte, ops []byte) {
		keys := decodeKeys(data)
		if len(keys) == 0 || len(keys) > 512 {
			return
		}
		g := BuildLSAGap(keys, keys, 0.6)
		live := make(map[uint64]bool, len(keys))
		for _, k := range keys {
			live[k] = true
		}
		for i := 0; i+8 < len(ops); i += 9 {
			k := binary.LittleEndian.Uint64(ops[i:])
			if ops[i+8]%2 == 0 && !live[k] && g.NumKeys < g.Capacity() {
				if g.Insert(k, k) {
					live[k] = true
				}
			} else if live[k] {
				if slot, ok := g.SlotOf(k); ok {
					g.Remove(slot)
					delete(live, k)
				} else {
					t.Fatalf("live key %d not found", k)
				}
			}
		}
		// Invariant: sorted, copies correct, count matches.
		count := 0
		var last uint64
		for i := range g.Keys {
			if i > 0 && g.Keys[i] < g.Keys[i-1] {
				t.Fatalf("keys not sorted at %d", i)
			}
			if g.Used[i] {
				count++
				last = g.Keys[i]
			} else if g.Keys[i] != last {
				t.Fatalf("gap copy wrong at %d", i)
			}
		}
		if count != g.NumKeys || count != len(live) {
			t.Fatalf("counts diverge: bitmap %d, NumKeys %d, ref %d", count, g.NumKeys, len(live))
		}
		for k := range live {
			if _, ok := g.SlotOf(k); !ok {
				t.Fatalf("live key %d unreachable", k)
			}
		}
		checkSeeks(t, g)
	})
}
