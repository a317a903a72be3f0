package index

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestMergeCursorOracle drives the merge cursor over random layers and
// checks every pull against an oracle: a key's value comes from the
// newest layer holding it at or past that layer's position, and a
// winning tombstone hides the key. Layers draw from a small key domain
// that includes 0 and 2^64-1, so keys repeat across layers; some layers
// are empty, some have no values (read as 0) or no tombstone flags, and
// some start exhausted. Pulls ask 1 to 7 entries until the cursor runs
// dry.
func TestMergeCursorOracle(t *testing.T) {
	domain := []uint64{0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 1 << 32, 1<<63 + 7, ^uint64(0) - 1, ^uint64(0)}
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 3000; iter++ {
		start := domain[rng.Intn(len(domain))]
		if rng.Intn(4) == 0 {
			start = rng.Uint64() // usually between domain keys
		}
		layers := make([]MergeLayer, 1+rng.Intn(6))
		for i := range layers {
			l := &layers[i]
			for _, k := range domain {
				if rng.Intn(3) == 0 {
					l.Keys = append(l.Keys, k)
				}
			}
			if rng.Intn(5) > 0 {
				l.Vals = make([]uint64, len(l.Keys))
				for j := range l.Vals {
					l.Vals[j] = rng.Uint64()
				}
			}
			if rng.Intn(2) == 0 {
				l.Dead = make([]bool, len(l.Keys))
				for j := range l.Dead {
					l.Dead[j] = rng.Intn(4) == 0
				}
			}
			l.Pos = sort.Search(len(l.Keys), func(j int) bool { return l.Keys[j] >= start })
			if rng.Intn(8) == 0 {
				l.Pos = len(l.Keys) // exhausted before the first pull
			}
		}

		// The oracle, from copies of the layers taken before the cursor
		// advances their positions.
		type entry struct{ key, val uint64 }
		var want []entry
		for _, k := range domain {
			for _, l := range layers {
				j, ok := slices.BinarySearch(l.Keys[l.Pos:], k)
				if !ok {
					continue
				}
				j += l.Pos
				if l.Dead == nil || !l.Dead[j] {
					var v uint64
					if l.Vals != nil {
						v = l.Vals[j]
					}
					want = append(want, entry{k, v})
				}
				break
			}
		}

		cur := NewMergeCursor(layers)
		var got []entry
		keys, vals := make([]uint64, 7), make([]uint64, 7)
		for dry := false; !dry; {
			pull := 1 + rng.Intn(7)
			n := cur.Next(keys[:pull], vals[:pull])
			for j := 0; j < n; j++ {
				got = append(got, entry{keys[j], vals[j]})
			}
			if n < pull {
				if again := cur.Next(keys[:pull], vals[:pull]); again != 0 {
					t.Fatalf("iteration %d: a short pull of %d was followed by %d more entries", iter, n, again)
				}
				dry = true
			}
		}
		cur.Close()
		if !slices.Equal(got, want) {
			t.Fatalf("iteration %d, start %d, %d layers:\n got %v\nwant %v", iter, start, len(layers), got, want)
		}
	}
}
