package viper

import (
	"fmt"
	"testing"

	"learnedpieces/internal/btree"
	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/learned/pgm"
)

// BenchmarkRange prices a Range of n entries on the paper's Optane model,
// the shape of the benchmark's scan-insert workload: 500k YCSB keys
// loaded, then half of them overwritten in random order, so a round's
// records are scattered over the log and pgm's cursor merges its runs.
// Starts are drawn from the loaded keys. n = 1–8 are the rounds too short
// to split into a head and a rest (from 7 on they do); 100 is the
// workload's longest. ns/op is per Range.
func BenchmarkRange(b *testing.B) {
	const n = 500_000
	keys := dataset.Generate(dataset.YCSBUniform, n, 1)
	starts := dataset.Shuffled(keys, 2)
	for _, ix := range []struct {
		name string
		new  func() index.Index
	}{
		{"btree", func() index.Index { return btree.New() }},
		{"pgm", func() index.Index { return pgm.New(pgm.DefaultConfig()) }},
	} {
		b.Run(ix.name, func(b *testing.B) {
			s := Open(benchRegion(), ix.new())
			if err := s.BulkPut(keys, benchValue()); err != nil {
				b.Fatal(err)
			}
			for _, k := range dataset.Shuffled(keys, 3)[:n/2] {
				if err := s.Put(k, benchValue()); err != nil {
					b.Fatal(err)
				}
			}
			for _, entries := range []int{1, 2, 3, 4, 5, 6, 7, 8, 100} {
				b.Run(fmt.Sprintf("n=%d", entries), func(b *testing.B) {
					seen := 0
					visit := func(uint64, []byte) bool { seen++; return true }
					reportDevice(b, deviceDelta(s.Region(), func() {
						for i := 0; i < b.N; i++ {
							if err := s.Range(starts[i%n], entries, visit); err != nil {
								b.Fatal(err)
							}
						}
					}))
					if seen == 0 {
						b.Fatal("no entry delivered")
					}
				})
			}
		})
	}
}
