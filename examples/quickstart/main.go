// Quickstart: build an ALEX learned index over a synthetic key set, do
// point lookups, range scans, inserts and deletes, and inspect the stats
// the paper's analysis cares about (depth, leaf count, retrains, size).
package main

import (
	"fmt"
	"log"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/learned/alex"
)

func main() {
	// 1M keys following the paper's YCSB (normal) distribution.
	keys := dataset.Generate(dataset.YCSBNormal, 1_000_000, 42)
	values := make([]uint64, len(keys))
	for i := range values {
		values[i] = uint64(i)
	}

	ix := alex.New(alex.DefaultConfig())
	if err := ix.BulkLoad(keys, values); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d keys: avg depth %.2f, %d data nodes\n",
		ix.Len(), ix.AvgDepth(), ix.LeafCount())

	// Point lookup.
	probe := keys[123456]
	if v, ok := ix.Get(probe); ok {
		fmt.Printf("get(%d) = %d\n", probe, v)
	}

	// Range scan: ten keys starting at an arbitrary point.
	fmt.Printf("scan from %d:\n", probe)
	index.Scan(ix, probe, 10, func(k, v uint64) bool {
		fmt.Printf("  %d -> %d\n", k, v)
		return true
	})

	// Inserts land in gaps; retraining happens automatically when a data
	// node exceeds its density bound.
	for i := uint64(1); i <= 100_000; i++ {
		if err := ix.Insert(i*3+1, i); err != nil {
			log.Fatal(err)
		}
	}
	retrains, ns := ix.RetrainStats()
	expands, splits := ix.ExpandSplitCounts()
	fmt.Printf("after 100k inserts: %d keys, %d retrains (%d expands, %d splits), %.1fms retraining\n",
		ix.Len(), retrains, expands, splits, float64(ns)/1e6)

	// Delete and verify.
	if !ix.Delete(probe) {
		log.Fatalf("delete(%d) failed", probe)
	}
	if _, ok := ix.Get(probe); ok {
		log.Fatal("deleted key still visible")
	}
	sz := ix.Sizes()
	fmt.Printf("footprint: %.1fKB structure, %.1fMB keys, %.1fMB values\n",
		float64(sz.Structure)/1024, float64(sz.Keys)/(1<<20), float64(sz.Values)/(1<<20))
}
