package pla

import (
	"sort"
	"testing"

	"learnedpieces/internal/dataset"
)

// lrsDomains are the sorted domains the LRS is checked over: three key
// distributions, PGM's level-0 first keys, and the ends of the key space.
func lrsDomains() map[string][]uint64 {
	osm := dataset.Generate(dataset.OSMLike, 100000, 3)
	segs := BuildOptPLA(osm, 32)
	pgmFirsts := make([]uint64, len(segs))
	for i := range segs {
		pgmFirsts[i] = segs[i].FirstKey
	}
	return map[string][]uint64{
		"ycsb":       dataset.Generate(dataset.YCSBUniform, 5000, 17),
		"osm":        dataset.Generate(dataset.OSMLike, 5000, 17),
		"face":       dataset.Generate(dataset.FACELike, 5000, 17),
		"pgm-firsts": pgmFirsts,
		"ends":       {0, 1, 1 << 63, ^uint64(0)},
	}
}

// TestLRSLevelsRouteToFloor descends the levels one at a time: at every
// level each query — a domain key, its neighbours, the midpoint to the
// next key, the ends of the key space — must have its floor inside the
// level's error window, so the step lands on it without walking, and the
// top level is one segment.
func TestLRSLevelsRouteToFloor(t *testing.T) {
	for name, domain := range lrsDomains() {
		s := NewLRS(8)
		s.Build(domain)
		top := len(s.levels) - 1
		if len(s.levels[top]) != 1 {
			t.Fatalf("%s: top level has %d segments", name, len(s.levels[top]))
		}
		queries := []uint64{0, 1, ^uint64(0) - 1, ^uint64(0)}
		for i, f := range domain {
			queries = append(queries, f, f-1, f+1)
			if i+1 < len(domain) {
				queries = append(queries, f+(domain[i+1]-f)/2)
			}
		}
		for _, q := range queries {
			idx := 0
			for lvl := top; lvl >= 0; lvl-- {
				d := s.domains[lvl]
				p := s.levels[lvl][idx].Predict(q)
				// The floor is upper-1; upper must lie inside the window.
				upper := sort.Search(len(d), func(i int) bool { return d[i] > q })
				if upper < p-s.eps-1 || upper > p+s.eps+2 {
					t.Fatalf("%s: level %d predicts %d for %d, floor at %d", name, lvl, p, q, upper-1)
				}
				idx = max(upper-1, 0)
			}
			if got := s.Locate(q); got != idx {
				t.Fatalf("%s: Locate(%d) = %d, descent %d", name, q, got, idx)
			}
		}
	}
}
