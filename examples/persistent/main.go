// Persistent-index example: the APEX-style extension keeps the learned
// index itself on (simulated) persistent memory, so a crash costs a
// header scan instead of the full record scan Viper needs (the paper's
// Fig 16 weakness of volatile learned indexes). This program loads data,
// crashes, recovers both designs and prints the asymmetry.
package main

import (
	"fmt"
	"log"
	"time"

	"learnedpieces/internal/core"
	"learnedpieces/internal/dataset"
	"learnedpieces/internal/learned/apex"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/viper"
)

func main() {
	const n = 500_000
	keys := dataset.Generate(dataset.YCSBNormal, n, 13)

	// Design A: Viper store + volatile ALEX index (the paper's setting).
	entry, _ := core.Lookup("alex")
	vregion := pmem.NewRegion(512<<20, pmem.Optane())
	store := viper.Open(vregion, entry.New())
	if err := store.BulkPut(keys, make([]byte, viper.DefaultValueSize)); err != nil {
		log.Fatal(err)
	}
	// Crash: every DRAM structure is dropped; only the region survives.
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	store = viper.Open(vregion, entry.New())
	viperRecovery := time.Since(start)
	if store.Len() != n {
		log.Fatalf("viper recovered %d keys, want %d", store.Len(), n)
	}

	// Design B: APEX — the index itself lives on PMem.
	region := pmem.NewRegion(256<<20, pmem.Optane())
	ax, err := apex.Create(region, apex.Config{LogCap: n})
	if err != nil {
		log.Fatal(err)
	}
	if err := ax.BulkLoad(keys, keys); err != nil {
		log.Fatal(err)
	}
	// Crash: every DRAM structure is dropped; only the region survives.
	start = time.Now()
	recovered, err := apex.Recover(region)
	if err != nil {
		log.Fatal(err)
	}
	apexRecovery := time.Since(start)

	if recovered.Len() != n {
		log.Fatalf("apex recovered %d keys, want %d", recovered.Len(), n)
	}
	if _, ok := recovered.Get(keys[n/3]); !ok {
		log.Fatal("apex lost a key")
	}

	fmt.Printf("%d keys on simulated Optane PMem\n", n)
	fmt.Printf("  viper + volatile ALEX recovery: %v (scan every record, retrain)\n", viperRecovery.Round(time.Millisecond))
	fmt.Printf("  apex persistent index recovery: %v (read node headers only)\n", apexRecovery.Round(time.Microsecond))
	fmt.Printf("  speedup: %.0fx\n", float64(viperRecovery)/float64(apexRecovery))
	fmt.Println("tradeoff: apex pays NVM latency on every lookup/insert; see `go test -run '^$' -bench ExtensionAPEX .`")
}
