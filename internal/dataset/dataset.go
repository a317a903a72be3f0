// Package dataset generates deterministic synthetic key sets whose
// distributional properties mirror the datasets used by the paper:
// YCSB uniform/normal, OSM (complex, clustered CDF) and FACE (extreme
// prefix skew). All generators are seeded and reproducible.
package dataset

import (
	"math"
	"math/rand"
	"sort"

	"learnedpieces/internal/radix"
)

// A Kind names one of the built-in key distributions.
type Kind int

const (
	// YCSBUniform draws keys uniformly from the full uint64 range.
	YCSBUniform Kind = iota
	// YCSBNormal draws keys from a normal distribution centred in the key
	// space, matching the paper's YCSB configuration for §III-A/§III-B.
	YCSBNormal
	// OSMLike produces a multi-modal, clustered CDF: many Gaussian clusters
	// of varying width and weight. Piecewise-linear approximations need many
	// more segments here than on YCSB, which is the property the paper's OSM
	// results depend on.
	OSMLike
	// FACELike produces extreme skew: the vast majority of keys fall in
	// (0, 2^50) and a thin tail reaches up to 2^64-1, so a fixed r-bit radix
	// prefix is almost useless (the property that degrades RadixSpline).
	FACELike
	// Sequential produces consecutive keys starting at 1.
	Sequential
)

// String returns the conventional name of the distribution.
func (k Kind) String() string {
	switch k {
	case YCSBUniform:
		return "ycsb-uniform"
	case YCSBNormal:
		return "ycsb"
	case OSMLike:
		return "osm"
	case FACELike:
		return "face"
	case Sequential:
		return "seq"
	}
	return "unknown"
}

// Kinds lists all built-in distributions.
func Kinds() []Kind {
	return []Kind{YCSBUniform, YCSBNormal, OSMLike, FACELike, Sequential}
}

// Generate returns n distinct keys of the given kind, sorted ascending.
// The same (kind, n, seed) triple always yields the same keys.
func Generate(kind Kind, n int, seed int64) []uint64 {
	switch kind {
	case YCSBUniform:
		return uniform(n, seed)
	case YCSBNormal:
		return normal(n, seed)
	case OSMLike:
		return osmLike(n, seed)
	case FACELike:
		return faceLike(n, seed)
	case Sequential:
		return sequential(n)
	}
	panic("dataset: unknown kind")
}

func sequential(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	return keys
}

func uniform(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		keys = fillDistinct(keys, n, func() uint64 { return rng.Uint64() })
	}
	return keys
}

func normal(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	const (
		mean  = float64(1) * (1 << 63)
		sigma = float64(1) * (1 << 59)
	)
	gen := func() uint64 {
		v := rng.NormFloat64()*sigma + mean
		if v < 1 {
			v = 1
		}
		if v > math.MaxUint64-1 {
			v = math.MaxUint64 - 1
		}
		return uint64(v)
	}
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		keys = fillDistinct(keys, n, gen)
	}
	return keys
}

// osmLike mixes ~64 Gaussian clusters whose centres, widths and weights
// are themselves random, yielding a CDF with many curvature changes.
func osmLike(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	const clusters = 64
	centers := make([]float64, clusters)
	widths := make([]float64, clusters)
	weights := make([]float64, clusters)
	var totalW float64
	for i := 0; i < clusters; i++ {
		centers[i] = rng.Float64() * math.MaxUint64 * 0.98
		// Widths span four orders of magnitude so segment lengths vary wildly.
		widths[i] = math.Pow(10, 12+rng.Float64()*4)
		weights[i] = math.Pow(rng.Float64(), 2) + 0.01
		totalW += weights[i]
	}
	// Cumulative weights for cluster selection.
	cum := make([]float64, clusters)
	acc := 0.0
	for i := range weights {
		acc += weights[i] / totalW
		cum[i] = acc
	}
	gen := func() uint64 {
		r := rng.Float64()
		c := sort.SearchFloat64s(cum, r)
		if c >= clusters {
			c = clusters - 1
		}
		v := rng.NormFloat64()*widths[c] + centers[c]
		if v < 1 {
			v = 1
		}
		if v > math.MaxUint64-1 {
			v = math.MaxUint64 - 1
		}
		return uint64(v)
	}
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		keys = fillDistinct(keys, n, gen)
	}
	return keys
}

// faceLike puts 99.2% of keys below 2^50 — so the high 14+ bits are
// nearly always zero, defeating a high-bit radix prefix — and scatters
// the remaining 0.8% up to 2^64-1. The dense low region is a cluster
// mixture (like real Facebook IDs), not smooth: the CDF needs many
// spline knots / PLA segments, which is what makes the useless radix
// prefix expensive (paper Fig 11).
func faceLike(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	// Fine-grained cluster structure (like crawled user-ID blocks): the
	// cluster count scales with n so the CDF stays rough at any size and
	// spline/PLA approximations need many knots in the prefix-0 region.
	clusters := n / 40
	if clusters < 64 {
		clusters = 64
	}
	centers := make([]float64, clusters)
	widths := make([]float64, clusters)
	for i := range centers {
		// Cluster centres log-uniform in [2^22, 2^50).
		centers[i] = math.Pow(2, 22+rng.Float64()*28)
		widths[i] = centers[i] * math.Pow(10, -2-rng.Float64()*4)
	}
	gen := func() uint64 {
		if rng.Float64() < 0.992 {
			c := rng.Intn(clusters)
			v := rng.NormFloat64()*widths[c] + centers[c]
			if v < 1 {
				v = 1
			}
			if v >= float64(uint64(1)<<50) {
				v = float64(uint64(1)<<50) - 1
			}
			return uint64(v)
		}
		// Thin tail across the whole space.
		exp := 50 + rng.Float64()*13.9
		return uint64(math.Pow(2, exp))
	}
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		keys = fillDistinct(keys, n, gen)
	}
	return keys
}

// fillDistinct extends keys with generated values until it holds n distinct
// sorted keys (it may be called repeatedly; collisions are dropped). Once
// at least n distinct keys exist the result is truncated to exactly n.
func fillDistinct(keys []uint64, n int, gen func() uint64) []uint64 {
	need := n - len(keys)
	// Overshoot slightly so one pass usually suffices.
	batch := need + need/16 + 8
	for i := 0; i < batch; i++ {
		keys = append(keys, gen())
	}
	keys = SortedUnique(keys)
	if len(keys) > n {
		keys = thin(keys, n)
	}
	return keys
}

// thin removes evenly spaced keys until exactly n remain, preserving the
// shape of the distribution (plain truncation would cut off the upper
// tail, destroying e.g. the FACE skew).
func thin(keys []uint64, n int) []uint64 {
	drop := len(keys) - n
	if drop <= 0 {
		return keys
	}
	stride := float64(len(keys)) / float64(drop)
	out := keys[:0]
	nextDrop := stride / 2
	dropped := 0
	for i, k := range keys {
		if dropped < drop && float64(i) >= nextDrop {
			nextDrop += stride
			dropped++
			continue
		}
		out = append(out, k)
	}
	return out[:n]
}

// SortedUnique sorts keys ascending and removes duplicates in place.
func SortedUnique(keys []uint64) []uint64 {
	radix.Sort(keys, nil)
	out := keys[:0]
	var prev uint64
	for i, k := range keys {
		if i > 0 && k == prev {
			continue
		}
		out = append(out, k)
		prev = k
	}
	return out
}

// Shuffled returns a new slice with the keys in a deterministic random
// order (useful for insert workloads over a sorted key set).
func Shuffled(keys []uint64, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint64, len(keys))
	copy(out, keys)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Split partitions sorted keys into a bulk-load prefix set and an insert
// set, by taking every k-th key (k = len/insertN) into the insert set, so
// inserts land throughout the key range rather than only at the end.
func Split(keys []uint64, insertN int) (load, inserts []uint64) {
	if insertN <= 0 || insertN >= len(keys) {
		return keys, nil
	}
	stride := len(keys) / insertN
	if stride < 2 {
		stride = 2
	}
	load = make([]uint64, 0, len(keys)-insertN)
	inserts = make([]uint64, 0, insertN)
	for i, k := range keys {
		if i%stride == stride-1 && len(inserts) < insertN {
			inserts = append(inserts, k)
		} else {
			load = append(load, k)
		}
	}
	return load, inserts
}
