// Command vipersrv serves a Viper store over TCP with the wire
// package's pipelined binary protocol: the repo's KV engine turned
// into a network service. Each connection's pipelined burst is executed
// in order and answered in one write, memory per connection is bounded
// by the in-flight window, and SIGINT/SIGTERM drain gracefully.
//
//	vipersrv -addr :7070 -index xindex -preload 1000000 -obs :6060
//
// The -obs endpoint mounts the shared telemetry handler (expvar,
// pprof, /telemetry JSON, /telemetry/table), which now includes the
// "network server" section: connections, in-flight, bad frames, and
// the Get-run length percentiles.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"learnedpieces/internal/core"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/server"
	"learnedpieces/internal/telemetry"
	"learnedpieces/internal/viper"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "listen address")
		indexName = flag.String("index", "xindex", "volatile index, by registry name (Table I's, plus btree, skiplist, art, cceh)")
		size      = flag.Int("mem", 512<<20, "simulated PMem bytes")
		latency   = flag.Bool("pmem", false, "simulate NVM latency")
		retrainF  = flag.String("retrain", "async", "retrain pipeline mode: inline|async")
		obs       = flag.String("obs", "", "serve expvar, pprof and /telemetry on this address (e.g. :6060)")
		window    = flag.Int("window", server.DefaultMaxInFlight, "per-connection in-flight window: responses held before a write is forced")
		preload   = flag.Int("preload", 0, "bulk-load keys 1..n before serving")
		valueSize = flag.Int("valuesize", viper.DefaultValueSize, "nominal value payload bytes")
		drainWait = flag.Duration("drainwait", 30*time.Second, "graceful shutdown budget before force-close")
	)
	flag.Parse()

	entry, ok := core.Lookup(*indexName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown index %q\n", *indexName)
		os.Exit(2)
	}
	rmode, ok := viper.ParseRetrainMode(*retrainF)
	if !ok {
		fmt.Fprintf(os.Stderr, "-retrain must be one of inline|async, got %q\n", *retrainF)
		os.Exit(2)
	}
	lat := pmem.None()
	if *latency {
		lat = pmem.Optane()
	}
	sink := telemetry.New()
	if *obs != "" {
		osrv, err := telemetry.Serve(*obs, sink)
		if err != nil {
			fmt.Fprintf(os.Stderr, "observability endpoint: %v\n", err)
			os.Exit(1)
		}
		defer func() { _ = osrv.Close() }()
		fmt.Printf("observability on http://%s/telemetry (also /telemetry/table, /debug/vars, /debug/pprof)\n", *obs)
	}
	store := viper.Open(pmem.NewRegion(*size, lat), entry.New(),
		viper.WithTelemetry(sink),
		viper.WithRetrainMode(rmode),
		viper.WithValueSize(*valueSize))
	if *preload > 0 {
		keys := make([]uint64, *preload)
		for i := range keys {
			keys[i] = uint64(i + 1)
		}
		t0 := time.Now()
		if err := store.BulkPut(keys, nil); err != nil {
			fmt.Fprintf(os.Stderr, "preload: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("preloaded %d keys in %v\n", *preload, time.Since(t0).Round(time.Millisecond))
	}

	srv, err := server.New(server.Config{
		Addr:        *addr,
		Store:       store,
		MaxInFlight: *window,
		Sink:        sink,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("vipersrv: %s index, %d MB simulated PMem, retrain %s, window %d, listening on %s\n",
		*indexName, *size>>20, *retrainF, *window, *addr)

	select {
	case sig := <-sigc:
		fmt.Printf("signal %v: draining...\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "shutdown: %v\n", err)
		}
		if err := store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "store close: %v\n", err)
		}
		fmt.Println("drained.")
	case err := <-errc:
		// Listener failed before any signal (bad address, port in use).
		fmt.Fprintln(os.Stderr, err)
		_ = store.Close()
		os.Exit(1)
	}
}
