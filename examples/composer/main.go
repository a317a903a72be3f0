// Composer example: the paper's four design dimensions as an API. §V
// suggests that combining ALEX's approximation algorithm (LSA-gap) with
// other structures could beat the stock designs — LIPP later did exactly
// this. Here we assemble that hypothetical index from pieces and race it
// against the stock combinations on the same workload.
package main

import (
	"fmt"
	"log"
	"time"

	"learnedpieces/internal/core"
	"learnedpieces/internal/dataset"
	"learnedpieces/internal/pla"
)

func main() {
	const n = 400_000
	all := dataset.Generate(dataset.OSMLike, n, 3)
	load, inserts := dataset.Split(all, n/4)
	probes := dataset.Shuffled(load, 4)

	combos := []struct {
		label string
		c     *core.Composed
	}{
		{"FITing-like  (BTREE + Opt-PLA + buffer)", core.Compose(
			core.OptPLA{Eps: 32}, core.NewBTreeTop(), core.BufferInsert{Size: 256}, core.RetrainNode{})},
		{"PGM-like     (LRS + Opt-PLA + buffer)", core.Compose(
			core.OptPLA{Eps: 32}, pla.NewLRS(8), core.BufferInsert{Size: 256}, core.RetrainNode{})},
		{"XIndex-like  (RMI + LSA + buffer)", core.Compose(
			core.LSA{SegLen: 256}, pla.NewRMI(0), core.BufferInsert{Size: 256}, core.RetrainNode{})},
		{"ALEX-like    (ATS + LSA-gap + gap insert)", core.Compose(
			core.LSAGap{SegLen: 1024}, core.NewATS(16, 64), core.GapInsert{}, core.ExpandOrSplit{MaxLeafKeys: 4096})},
		{"§V proposal  (LRS + LSA-gap + gap insert)", core.Compose(
			core.LSAGap{SegLen: 1024}, pla.NewLRS(8), core.GapInsert{}, core.ExpandOrSplit{MaxLeafKeys: 4096})},
		{"§V-B1 hot    (HotATS + LSA-gap + gap insert)", core.Compose(
			core.LSAGap{SegLen: 1024}, core.NewHotATS(16, 64), core.GapInsert{}, core.ExpandOrSplit{MaxLeafKeys: 4096})},
	}

	fmt.Printf("%-45s %12s %12s %10s %9s\n", "combination", "get ns/op", "insert ns/op", "leaves", "retrains")
	for _, cb := range combos {
		if err := cb.c.BulkLoad(load, load); err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		for _, k := range probes {
			if _, ok := cb.c.Get(k); !ok {
				log.Fatalf("%s: key %d missing", cb.label, k)
			}
		}
		getNs := float64(time.Since(start).Nanoseconds()) / float64(len(probes))

		start = time.Now()
		for _, k := range inserts {
			if err := cb.c.Insert(k, k); err != nil {
				log.Fatal(err)
			}
		}
		insNs := float64(time.Since(start).Nanoseconds()) / float64(len(inserts))
		retrains, _ := cb.c.RetrainStats()
		fmt.Printf("%-45s %12.0f %12.0f %10d %9d\n", cb.label, getNs, insNs, cb.c.LeafCount(), retrains)
	}
	fmt.Println("\n(every combination is a fully functional index: same Get/Insert/Range API)")
}
