// KV store example: the paper's end-to-end setting. A Viper-style store
// keeps 200-byte records on simulated persistent memory with a learned
// index in DRAM; we run a YCSB-B style read-mostly phase, crash the DRAM
// index, and recover it from the PMem pages (Fig 16's scenario).
package main

import (
	"fmt"
	"log"
	"time"

	"learnedpieces/internal/core"
	"learnedpieces/internal/dataset"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/viper"
	"learnedpieces/internal/workload"
)

func main() {
	const n = 200_000
	keys := dataset.Generate(dataset.YCSBNormal, n, 7)
	value := make([]byte, viper.DefaultValueSize)
	copy(value, "payload")

	// Simulated Optane PMem: reads ~3-4x slower than DRAM.
	region := pmem.NewRegion(512<<20, pmem.Optane())
	entry, _ := core.Lookup("pgm")
	store := viper.Open(region, entry.New())

	start := time.Now()
	if err := store.BulkPut(keys, value); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bulk-loaded %d records in %v\n", store.Len(), time.Since(start).Round(time.Millisecond))

	// YCSB-B: 95% reads / 5% updates with Zipfian requests.
	gen := workload.NewGenerator(workload.YCSBB, keys, nil, 11)
	start = time.Now()
	const ops = 200_000
	for i := 0; i < ops; i++ {
		op := gen.Next()
		switch op.Kind {
		case workload.OpRead:
			if _, ok := store.Get(op.Key); !ok {
				log.Fatalf("key %d missing", op.Key)
			}
		case workload.OpUpdate:
			if err := store.Put(op.Key, value); err != nil {
				log.Fatal(err)
			}
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("YCSB-B: %d ops in %v (%.2f Mops/s)\n", ops, elapsed.Round(time.Millisecond),
		float64(ops)/elapsed.Seconds()/1e6)

	a := region.AccessStats()
	fmt.Printf("pmem traffic: %d reads, %d writes, %d flushes\n", a.Reads, a.Writes, a.Flushes)

	st, wk, wkv := store.Sizes()
	fmt.Printf("Table III view: index %.2fMB | index+key %.2fMB | index+KV %.2fMB\n",
		float64(st)/(1<<20), float64(wk)/(1<<20), float64(wkv)/(1<<20))

	// Crash: the store and its DRAM index vanish; the PMem region
	// survives, and a store opened over it finds its log by the page stamps.
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	store = viper.Open(region, entry.New())
	fmt.Printf("recovered %d keys from PMem in %v\n", store.Len(), time.Since(start).Round(time.Millisecond))

	if _, ok := store.Get(keys[n/2]); !ok {
		log.Fatal("recovery lost data")
	}
	fmt.Println("post-recovery lookup OK")
}
