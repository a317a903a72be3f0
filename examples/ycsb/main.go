// YCSB example: run the paper's mixed workloads (A/B/D/F, Fig 15) over a
// chosen pair of indexes inside the Viper store and print the comparison
// the paper plots.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"learnedpieces/internal/core"
	"learnedpieces/internal/dataset"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/stats"
	"learnedpieces/internal/viper"
	"learnedpieces/internal/workload"
)

func main() {
	var (
		a = flag.String("a", "alex", "first index")
		b = flag.String("b", "btree", "second index")
		n = flag.Int("n", 100_000, "loaded keys")
	)
	flag.Parse()

	all := dataset.Generate(dataset.YCSBNormal, *n*3/2, 1)
	load, inserts := dataset.Split(all, *n/2)
	value := make([]byte, viper.DefaultValueSize)

	table := stats.NewTable(fmt.Sprintf("YCSB A/B/D/F, %d loaded keys, simulated PMem", len(load)),
		"workload", "index", "Mops/s", "p99(us)", "p99.9(us)")
	for _, mix := range workload.Mixes() {
		for _, name := range []string{*a, *b} {
			entry, ok := core.Lookup(name)
			if !ok {
				log.Fatalf("unknown index %q", name)
			}
			store := viper.Open(pmem.NewRegion(512<<20, pmem.Optane()), entry.New())
			if err := store.BulkPut(load, value); err != nil {
				log.Fatal(err)
			}
			gen := workload.NewGenerator(mix, load, inserts, 9)
			h := stats.NewHistogram()
			start := time.Now()
			const ops = 100_000
			for i := 0; i < ops; i++ {
				op := gen.Next()
				t0 := time.Now()
				switch op.Kind {
				case workload.OpRead:
					store.Get(op.Key)
				case workload.OpUpdate, workload.OpInsert:
					if err := store.Put(op.Key, value); err != nil {
						log.Fatal(err)
					}
				case workload.OpRMW:
					store.Get(op.Key)
					if err := store.Put(op.Key, value); err != nil {
						log.Fatal(err)
					}
				}
				h.RecordSince(t0)
			}
			sum := stats.Summarize(name, h, time.Since(start))
			table.AddRow(mix.Name, name,
				sum.ThroughputOpsPerSec/1e6, float64(sum.P99Ns)/1e3, float64(sum.P999Ns)/1e3)
		}
	}
	table.Render(os.Stdout)
}
