package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestGenerateBasicProperties(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			keys := Generate(kind, 5000, 42)
			if len(keys) != 5000 {
				t.Fatalf("got %d keys, want 5000", len(keys))
			}
			for i := 1; i < len(keys); i++ {
				if keys[i] <= keys[i-1] {
					t.Fatalf("keys not strictly increasing at %d: %d <= %d", i, keys[i], keys[i-1])
				}
			}
			// Determinism.
			again := Generate(kind, 5000, 42)
			for i := range keys {
				if keys[i] != again[i] {
					t.Fatalf("generation not deterministic at index %d", i)
				}
			}
			// Different seed differs (except Sequential, which ignores seed).
			if kind != Sequential {
				other := Generate(kind, 5000, 43)
				same := true
				for i := range keys {
					if keys[i] != other[i] {
						same = false
						break
					}
				}
				if same {
					t.Fatal("different seeds produced identical keys")
				}
			}
		})
	}
}

func TestFaceLikeSkew(t *testing.T) {
	keys := Generate(FACELike, 20000, 7)
	below50 := 0
	var max uint64
	for _, k := range keys {
		if k < 1<<50 {
			below50++
		}
		if k > max {
			max = k
		}
	}
	frac := float64(below50) / float64(len(keys))
	if frac < 0.95 {
		t.Fatalf("only %.2f%% of FACE keys below 2^50, want >95%%", frac*100)
	}
	if max < 1<<55 {
		t.Fatalf("FACE tail missing: max key %d below 2^55", max)
	}
}

func TestOSMLikeIsMultiModal(t *testing.T) {
	// The OSM-like CDF should be far from linear: compare against the
	// straight line between first and last key.
	keys := Generate(OSMLike, 20000, 3)
	span := float64(keys[len(keys)-1] - keys[0])
	var maxDev float64
	for i, k := range keys {
		lin := float64(k-keys[0]) / span
		emp := float64(i) / float64(len(keys)-1)
		if d := math.Abs(lin - emp); d > maxDev {
			maxDev = d
		}
	}
	if maxDev < 0.05 {
		t.Fatalf("OSM-like CDF too close to uniform: max deviation %.4f", maxDev)
	}
}

func TestSortedUnique(t *testing.T) {
	in := []uint64{5, 3, 5, 1, 3, 9, 1}
	out := SortedUnique(in)
	want := []uint64{1, 3, 5, 9}
	if len(out) != len(want) {
		t.Fatalf("got %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("got %v, want %v", out, want)
		}
	}
}

func TestSortedUniqueQuick(t *testing.T) {
	f := func(in []uint64) bool {
		out := SortedUnique(append([]uint64(nil), in...))
		seen := make(map[uint64]bool)
		for i, k := range out {
			if i > 0 && out[i-1] >= k {
				return false
			}
			seen[k] = true
		}
		for _, k := range in {
			if !seen[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffledIsPermutation(t *testing.T) {
	keys := Generate(YCSBUniform, 1000, 1)
	sh := Shuffled(keys, 99)
	if len(sh) != len(keys) {
		t.Fatalf("length changed")
	}
	back := SortedUnique(append([]uint64(nil), sh...))
	for i := range keys {
		if back[i] != keys[i] {
			t.Fatalf("not a permutation at %d", i)
		}
	}
	// Actually shuffled: at least one element moved.
	moved := false
	for i := range keys {
		if sh[i] != keys[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("shuffle did nothing")
	}
}

func TestSplit(t *testing.T) {
	keys := Generate(Sequential, 1000, 0)
	load, ins := Split(keys, 100)
	if len(ins) != 100 {
		t.Fatalf("got %d inserts, want 100", len(ins))
	}
	if len(load)+len(ins) != len(keys) {
		t.Fatalf("split lost keys: %d + %d != %d", len(load), len(ins), len(keys))
	}
	// Disjoint and both sorted.
	seen := make(map[uint64]bool, len(load))
	for i, k := range load {
		if i > 0 && load[i-1] >= k {
			t.Fatal("load not sorted")
		}
		seen[k] = true
	}
	for i, k := range ins {
		if i > 0 && ins[i-1] >= k {
			t.Fatal("inserts not sorted")
		}
		if seen[k] {
			t.Fatalf("key %d in both halves", k)
		}
	}
	// Inserts spread across the range, not clustered at the end.
	if ins[0] > keys[len(keys)/2] {
		t.Fatal("inserts clustered at the end of the key range")
	}

	// Degenerate cases.
	l2, i2 := Split(keys, 0)
	if len(l2) != len(keys) || i2 != nil {
		t.Fatal("Split with insertN=0 should return all keys as load")
	}
}

// TestGeneratePinned pins every kind's keys at 200k, the size the paper
// tables run at: a change to the generators or to the sort under
// SortedUnique that moves one key fails here, not only in the
// benchmark's op-stream fingerprint.
func TestGeneratePinned(t *testing.T) {
	want := map[Kind]uint64{
		YCSBUniform: 0x141a0b52cf9419b5,
		YCSBNormal:  0xb3247c77de5254ef,
		OSMLike:     0xdf8d2298904952c4,
		FACELike:    0x41fa4fcf25988526,
		Sequential:  0x91d2c0f334f63de9,
	}
	for _, kind := range Kinds() {
		h := fnv.New64()
		var b [8]byte
		for _, k := range Generate(kind, 200_000, 42) {
			binary.LittleEndian.PutUint64(b[:], k)
			h.Write(b[:])
		}
		if got := h.Sum64(); got != want[kind] {
			t.Errorf("%s: FNV-64 %#016x, want %#016x", kind, got, want[kind])
		}
	}
}
