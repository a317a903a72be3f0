// Command libench regenerates the paper's tables and figures.
//
// Usage:
//
//	libench -exp fig10                # one experiment at default scale
//	libench -exp all -n 100000        # everything, smaller
//	libench -list                     # show available experiments
//	libench -exp fig10 -obs :6060     # live expvar/pprof/telemetry
//	libench -exp fig10 -snapshot BENCH.json
//
// Scale note: the paper runs 200M-800M keys on a dual-socket Optane
// server; the defaults here are 200k-800k so a laptop regenerates every
// shape in minutes. Use -n / -sizes to push further.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"learnedpieces/internal/bench"
	"learnedpieces/internal/parallel"
	"learnedpieces/internal/telemetry"
	"learnedpieces/internal/viper"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		n        = flag.Int("n", 200_000, "base dataset size")
		sizes    = flag.String("sizes", "", "comma-separated size sweep (default n,2n,4n)")
		threads  = flag.String("threads", "1,2,4,8", "comma-separated thread sweep")
		ops      = flag.Int("ops", 0, "requests per measured phase (default n)")
		seed     = flag.Int64("seed", 42, "random seed")
		pm       = flag.Bool("pmem", true, "simulate NVM latency in the KV store")
		vs       = flag.Int("valuesize", 200, "record value size in bytes")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		batch    = flag.Int("batch", 0, "batched reads: MultiGet batch size for the read-only experiments (0/1 = per-key Get)")
		workers  = flag.Int("workers", 0, "worker count for parallel bulk paths (recovery/compaction/bulk-load/training); 0 = all cores")
		obs      = flag.String("obs", "", "serve expvar, pprof and /telemetry on this address (e.g. :6060)")
		snapshot = flag.String("snapshot", "", "write the run's JSON telemetry snapshot to this file on exit")
		retrain  = flag.String("retrain", "inline", "retrain pipeline mode for every store the harness opens: inline|async")
		list     = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	fatalf := func(code int, format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		os.Exit(code)
	}
	if *n <= 0 {
		fatalf(2, "-n must be positive, got %d", *n)
	}
	if *vs <= 0 {
		fatalf(2, "-valuesize must be positive, got %d", *vs)
	}
	if *ops < 0 {
		fatalf(2, "-ops must be non-negative, got %d", *ops)
	}
	if *batch < 0 {
		fatalf(2, "-batch must be non-negative, got %d", *batch)
	}
	if *workers < 0 {
		fatalf(2, "-workers must be non-negative, got %d", *workers)
	}
	rmode, ok := viper.ParseRetrainMode(*retrain)
	if !ok {
		fatalf(2, "-retrain must be one of inline|async, got %q", *retrain)
	}

	parallel.SetWorkers(*workers)

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	sink := telemetry.New()
	if *obs != "" {
		srv, err := telemetry.Serve(*obs, sink)
		if err != nil {
			fatalf(1, "observability endpoint: %v", err)
		}
		defer srv.Close()
		fmt.Printf("observability on http://%s/telemetry (also /debug/vars, /debug/pprof)\n", *obs)
	}

	cfg := bench.DefaultConfig(os.Stdout)
	cfg.N = *n
	cfg.Seed = *seed
	cfg.PMemLatency = *pm
	cfg.ValueSize = *vs
	cfg.CSV = *csv
	cfg.Batch = *batch
	cfg.Ops = *ops
	cfg.RetrainMode = rmode
	cfg.Telemetry = sink
	if cfg.Ops <= 0 {
		cfg.Ops = *n
	}
	if *sizes != "" {
		cfg.Sizes = parseInts(*sizes)
	} else {
		cfg.Sizes = []int{*n, 2 * *n, 4 * *n}
	}
	cfg.Threads = parseInts(*threads)

	run := func(e bench.Experiment) {
		fmt.Printf("\n### %s — %s\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(cfg); err != nil {
			fatalf(1, "%s: %v", e.ID, err)
		}
		fmt.Printf("(%s in %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range bench.All() {
			run(e)
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := bench.Get(strings.TrimSpace(id))
			if !ok {
				fatalf(2, "unknown experiment %q (try -list)", id)
			}
			run(e)
		}
	}

	if *snapshot != "" {
		f, err := os.Create(*snapshot)
		if err != nil {
			fatalf(1, "snapshot: %v", err)
		}
		if err := sink.Snapshot().WriteJSON(f); err != nil {
			_ = f.Close()
			fatalf(1, "snapshot: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf(1, "snapshot: %v", err)
		}
		fmt.Printf("telemetry snapshot written to %s\n", *snapshot)
	}
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "bad integer list %q\n", s)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
