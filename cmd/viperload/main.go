// Command viperload is the YCSB-style multi-client load driver for
// vipersrv. It runs a named workload mix (-mix) over a pooled pipelined
// client, reports throughput and round-trip latency, and asserts the
// protocol invariant a throughput number can't: every request sent got
// exactly one response — zero lost, zero duplicated IDs — including
// across graceful drains issued mid-load.
//
// Against a running server:
//
//	viperload -addr 127.0.0.1:7070 -n 100000 -ops 200000 -clients 16 -mix ycsb-e
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
	"learnedpieces/internal/workload"
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
		mixName    = flag.String("mix", workload.Server.Name, "workload mix: server (90% reads / 8% updates / 2% inserts), ycsb-a..ycsb-f, read-only or write-only")
		scanLen    = flag.Int("scanlen", 0, "maximum range length per scan; 0 keeps the mix's (100)")
		valueSize  = flag.Int("valuesize", viper.DefaultValueSize, "written payload bytes")
		rate       = flag.Int("rate", 0, "open-loop target ops/sec (0 = closed loop)")
		seed       = flag.Int64("seed", 1, "workload RNG seed")
		drainEvery = flag.Int("drainevery", 0, "issue a graceful drain every n ops per worker (0 = never)")
		strict     = flag.Bool("strict", false, "exit non-zero on any lost or duplicated response")
		out        = flag.String("out", "", "write the JSON report here instead of stdout")
	)
	flag.Parse()

	mix, err := workload.MixNamed(*mixName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *scanLen > 0 {
		mix.ScanLen = *scanLen
	}
	cfg := load.Config{
		Addr:       *addr,
		Conns:      *conns,
		Clients:    *clients,
		Ops:        *ops,
		Keyspace:   uint64(*n),
		Mix:        mix,
		ValueSize:  *valueSize,
		Rate:       *rate,
		Seed:       *seed,
		DrainEvery: *drainEvery,
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
			"%+v, closed loop unless -rate",
			*n, *valueSize, *ops, *clients, *conns, mix),
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
		fmt.Fprintf(os.Stderr, "%8.1f kops  p50 %7s  p99 %7s  lost %d  dup %d",
			r.Kops, time.Duration(r.P50Ns), time.Duration(r.P99Ns), r.Lost, r.Dup)
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
