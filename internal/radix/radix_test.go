package radix

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSortMatchesSlicesSort checks the keys against slices.Sort and the
// payload against a stable sort of (key, position) pairs, so an equal-key
// run must come out in input order.
func TestSortMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]uint64, 5000)
	for i := range random {
		random[i] = rng.Uint64()
	}
	sorted := slices.Clone(random)
	slices.Sort(sorted)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	dups := make([]uint64, 5000) // few distinct keys in every byte: long equal runs
	for i := range dups {
		dups[i] = uint64(rng.Intn(7)) << (8 * uint(rng.Intn(8)))
	}
	equal := make([]uint64, 1000)
	for i := range equal {
		equal[i] = 0xdeadbeef
	}
	// Inputs of splitMin keys and more are split on their top varying
	// byte first: spread keys, keys whose top byte is shared, and a long
	// run of duplicates beside a thin spread tail.
	large := make([]uint64, 3*splitMin)
	for i := range large {
		large[i] = rng.Uint64()
	}
	narrow := make([]uint64, splitMin)
	for i := range narrow {
		narrow[i] = rng.Uint64() >> 20
	}
	skewed := make([]uint64, 2*splitMin)
	for i := range skewed {
		skewed[i] = uint64(rng.Intn(50))
		if i%97 == 0 {
			skewed[i] = rng.Uint64()
		}
	}
	for _, c := range []struct {
		name string
		keys []uint64
	}{
		{"empty", nil},
		{"one", []uint64{42}},
		{"random", random},
		{"sorted", sorted},
		{"reversed", reversed},
		{"all-equal", equal},
		{"extremes", []uint64{math.MaxUint64, 0, math.MaxUint64, 0}},
		{"duplicates", dups},
		{"large", large},
		{"large-narrow", narrow},
		{"large-skewed", skewed},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := slices.Clone(c.keys)
			slices.Sort(want)
			got := slices.Clone(c.keys)
			Sort(got, nil)
			if !slices.Equal(got, want) {
				t.Fatalf("keys only: got %v, want %v", head(got), head(want))
			}

			type pair struct{ key, pos uint64 }
			pairs := make([]pair, len(c.keys))
			for i, k := range c.keys {
				pairs[i] = pair{k, uint64(i)}
			}
			slices.SortStableFunc(pairs, func(a, b pair) int {
				switch {
				case a.key < b.key:
					return -1
				case a.key > b.key:
					return 1
				}
				return 0
			})
			got = slices.Clone(c.keys)
			pos := make([]uint64, len(got))
			for i := range pos {
				pos[i] = uint64(i)
			}
			Sort(got, pos)
			for i, p := range pairs {
				if got[i] != p.key || pos[i] != p.pos {
					t.Fatalf("with payload, entry %d: (%d, %d), want (%d, %d)", i, got[i], pos[i], p.key, p.pos)
				}
			}
		})
	}
}

func head(s []uint64) []uint64 { return s[:min(len(s), 8)] }

// BenchmarkSort times each of Sort's two paths, and slices.Sort, on
// random keys with a payload at sizes either side of splitMin; Sort takes
// lsd below splitMin and split from it.
func BenchmarkSort(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16, 1 << 17, 1 << 18, 1 << 20} {
		src := make([]uint64, n)
		for i := range src {
			src[i] = rng.Uint64()
		}
		keys, vals := make([]uint64, n), make([]uint64, n)
		tmpK, tmpV := make([]uint64, n), make([]uint64, n)
		for _, m := range []struct {
			name string
			sort func()
		}{
			{"lsd", func() {
				copy(tmpK, keys)
				copy(tmpV, vals)
				lsd(tmpK, tmpV, keys, vals, 8)
			}},
			{"split", func() { split(keys, vals, tmpK, tmpV) }},
			{"slices", func() { slices.Sort(keys) }},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, m.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(keys, src)
					for j := range vals {
						vals[j] = uint64(j)
					}
					m.sort()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
			})
		}
	}
}
