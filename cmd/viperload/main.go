// Command viperload is the YCSB-style multi-client load driver for
// vipersrv. It runs a read/update/insert mix over a pooled pipelined
// client, reports throughput and round-trip latency, and asserts the
// protocol invariant a throughput number can't: every request sent got
// exactly one response — zero lost, zero duplicated IDs — including
// across graceful drains issued mid-load.
//
// Against a running server:
//
//	viperload -addr 127.0.0.1:7070 -n 100000 -ops 200000 -clients 16
//
// -strict exits non-zero when any run lost or duplicated a response,
// which is what the CI e2e smoke gates on.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"learnedpieces/internal/load"
	"learnedpieces/internal/viper"
)

type report struct {
	Title       string        `json:"title"`
	Environment environment   `json:"environment"`
	Workload    string        `json:"workload"`
	Runs        []load.Result `json:"runs"`
}

type environment struct {
	CPUs int    `json:"cpus_visible"`
	GOOS string `json:"goos"`
	Arch string `json:"goarch"`
	Note string `json:"note"`
}

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7070", "vipersrv address")
		conns      = flag.Int("conns", 4, "client connections in the pool")
		clients    = flag.Int("clients", 16, "concurrent workers")
		ops        = flag.Int("ops", 200_000, "total operations")
		n          = flag.Int("n", 100_000, "preloaded keyspace size (keys 1..n)")
		readFrac   = flag.Float64("reads", 0.90, "read fraction")
		updateFrac = flag.Float64("updates", 0.08, "update fraction")
		insertFrac = flag.Float64("inserts", 0.02, "insert fraction")
		scanFrac   = flag.Float64("scans", 0, "range-scan fraction (cursor-continuation wire scans)")
		scanLen    = flag.Int("scanlen", 100, "maximum range length per scan")
		scanDist   = flag.String("scanlendist", "uniform", "range-length distribution in [1,scanlen]: uniform (YCSB-E) or zipf")
		ycsbE      = flag.Bool("ycsbe", false, "YCSB-E preset: 95% scans / 5% inserts, zipf starts, uniform scan length")
		dist       = flag.String("dist", "zipf", "request distribution over the keyspace: zipf (YCSB theta 0.99) or uniform")
		valueSize  = flag.Int("valuesize", viper.DefaultValueSize, "written payload bytes")
		rate       = flag.Int("rate", 0, "open-loop target ops/sec (0 = closed loop)")
		seed       = flag.Int64("seed", 1, "workload RNG seed")
		drainEvery = flag.Int("drainevery", 0, "issue a graceful drain every n ops per worker (0 = never)")
		strict     = flag.Bool("strict", false, "exit non-zero on any lost or duplicated response")
		out        = flag.String("out", "", "write the JSON report here instead of stdout")
	)
	flag.Parse()

	if *ycsbE {
		// The benchmark's workload E: short ranges dominate, a trickle
		// of inserts keeps the index absorbing new keys mid-scan.
		*readFrac, *updateFrac, *insertFrac, *scanFrac = 0, 0, 0.05, 0.95
		*dist = "zipf"
		*scanDist = "uniform"
	}

	cfg := load.Config{
		Addr:        *addr,
		Conns:       *conns,
		Clients:     *clients,
		Ops:         *ops,
		Keyspace:    uint64(*n),
		Dist:        *dist,
		ReadFrac:    *readFrac,
		UpdateFrac:  *updateFrac,
		InsertFrac:  *insertFrac,
		ScanFrac:    *scanFrac,
		ScanLen:     *scanLen,
		ScanLenDist: *scanDist,
		ValueSize:   *valueSize,
		Rate:        *rate,
		Seed:        *seed,
		DrainEvery:  *drainEvery,
	}

	rep := report{
		Title: "vipersrv service front end: pipelined wire protocol, one burst one write",
		Environment: environment{
			CPUs: runtime.NumCPU(),
			GOOS: runtime.GOOS,
			Arch: runtime.GOARCH,
			Note: "loopback TCP on a shared CI box; wall-clock drifts between runs. " +
				"The machine-independent signals are the zero lost/dup columns; " +
				"kops on a small box measures protocol overhead, not index scaling.",
		},
		Workload: fmt.Sprintf("preload %d keys (%dB values), %d ops x %d clients over %d conns: "+
			"%.0f%% reads / %.0f%% updates / %.0f%% inserts / %.0f%% scans (len<=%d %s), "+
			"%s requests, closed loop unless -rate",
			*n, *valueSize, *ops, *clients, *conns,
			*readFrac*100, *updateFrac*100, *insertFrac*100, *scanFrac*100,
			*scanLen, *scanDist, *dist),
	}

	res, err := load.Run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep.Runs = append(rep.Runs, res)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() { _ = f.Close() }()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	bad := false
	for _, r := range rep.Runs {
		fmt.Fprintf(os.Stderr, "%-14s %8.1f kops  p50 %7s  p99 %7s  lost %d  dup %d",
			r.Label, r.Kops, time.Duration(r.P50Ns), time.Duration(r.P99Ns),
			r.Lost, r.Dup)
		if r.Scans > 0 {
			fmt.Fprintf(os.Stderr, "  scans %d (entries %d, chunks %d, violations %d)",
				r.Scans, r.ScanEntries, r.ScanChunks, r.ScanViolations)
		}
		fmt.Fprintln(os.Stderr)
		if r.Lost != 0 || r.Dup != 0 || r.ScanViolations != 0 {
			bad = true
		}
	}
	if *strict && bad {
		fmt.Fprintln(os.Stderr, "FAIL: lost, duplicated, or misordered responses detected")
		os.Exit(1)
	}
}
