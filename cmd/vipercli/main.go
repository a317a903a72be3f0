// Command vipercli is a small interactive/batch shell over the Viper
// store for manual poking: put/get/del/scan/stats/crash/recover.
//
//	vipercli -index alex
//	> put 42 hello
//	> get 42
//	> scan 0 10
//	> crash
//	> recover
//
// Store errors are printed to stderr and make the shell exit with a
// non-zero status once the session ends, so batch scripts piping
// commands in can detect failures.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"learnedpieces/internal/core"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/telemetry"
	"learnedpieces/internal/viper"
)

func main() {
	var (
		indexName = flag.String("index", "alex", "volatile index, by registry name (Table I's, plus btree, skiplist, art, cceh)")
		size      = flag.Int("mem", 256<<20, "simulated PMem bytes")
		latency   = flag.Bool("pmem", false, "simulate NVM latency")
		obs       = flag.String("obs", "", "serve expvar, pprof and /telemetry on this address (e.g. :6060)")
		retrainF  = flag.String("retrain", "inline", "retrain pipeline mode: inline|async")
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
	if *size <= 0 {
		fmt.Fprintf(os.Stderr, "-mem must be positive, got %d\n", *size)
		os.Exit(2)
	}
	lat := pmem.None()
	if *latency {
		lat = pmem.Optane()
	}
	region := pmem.NewRegion(*size, lat)
	sink := telemetry.New()
	if *obs != "" {
		srv, err := telemetry.Serve(*obs, sink)
		if err != nil {
			fmt.Fprintf(os.Stderr, "observability endpoint: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("observability on http://%s/telemetry (also /debug/vars, /debug/pprof)\n", *obs)
	}
	// A crash drops the store and keeps the region; recover opens the
	// region again, attaching to the log its page stamps list.
	open := func() *viper.Store {
		return viper.Open(region, entry.New(), viper.WithTelemetry(sink), viper.WithRetrainMode(rmode))
	}
	store := open()
	fmt.Printf("viper store with %s index over %d MB simulated PMem (retrain mode: %s)\n",
		*indexName, *size>>20, *retrainF)
	fmt.Println("commands: put <k> <v> | get <k> | del <k> | scan <start> <n> | len | stats | drain | crash | recover | quit")

	// Store errors don't abort the shell (the session stays usable) but
	// they must not be swallowed either: report on stderr and remember a
	// failing exit status for when the session ends.
	exitCode := 0
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "error:", err)
		exitCode = 1
	}

	// quit closes the store first — draining background retrains and
	// stopping the worker pool — so batch sessions never leak goroutines
	// or drop a pending retrain install on exit.
	quit := func() {
		if !store.Closed() {
			if err := store.Close(); err != nil {
				fail(err)
			}
		}
		os.Exit(exitCode)
	}

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				fail(err)
			}
			quit()
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "quit", "exit":
			quit()
		case "put":
			if len(fields) != 3 {
				fmt.Println("usage: put <key> <value>")
				continue
			}
			k, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				fmt.Println("bad key:", err)
				continue
			}
			if err := store.Put(k, []byte(fields[2])); err != nil {
				fail(err)
			}
		case "get":
			if len(fields) != 2 {
				fmt.Println("usage: get <key>")
				continue
			}
			k, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				fmt.Println("bad key:", err)
				continue
			}
			if v, ok := store.Get(k); ok {
				fmt.Printf("%q\n", v)
			} else {
				fmt.Println("(not found)")
			}
		case "del":
			if len(fields) != 2 {
				fmt.Println("usage: del <key>")
				continue
			}
			k, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				fmt.Println("bad key:", err)
				continue
			}
			ok, err := store.Delete(k)
			if err != nil {
				fail(err)
			} else {
				fmt.Println("deleted:", ok)
			}
		case "scan":
			if len(fields) != 3 {
				fmt.Println("usage: scan <start> <n>")
				continue
			}
			start, err1 := strconv.ParseUint(fields[1], 10, 64)
			n, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				fmt.Println("bad arguments")
				continue
			}
			err := store.Range(start, n, func(k uint64, v []byte) bool {
				fmt.Printf("  %d -> %q\n", k, v)
				return true
			})
			if err != nil {
				fail(err)
			}
		case "len":
			fmt.Println(store.Len())
		case "stats":
			a := region.AccessStats()
			st, wk, wkv := store.Sizes()
			fmt.Printf("pmem: %d reads, %d writes, %d flushes, %d/%d bytes allocated\n",
				a.Reads, a.Writes, a.Flushes, region.Allocated(), region.Size())
			fmt.Printf("sizes: index=%d index+key=%d index+KV=%d\n", st, wk, wkv)
			sink.Snapshot().WriteText(os.Stdout)
		case "drain":
			store.DrainRetrains()
			fmt.Println("retrain pipeline drained")
		case "crash":
			_ = store.Close() // ErrClosed only when already crashed
			fmt.Println("store dropped, region kept; reads miss and writes fail until 'recover'")
		case "recover":
			_ = store.Close() // ErrClosed only when already crashed
			store = open()
			fmt.Printf("recovered %d keys\n", store.Len())
		default:
			fmt.Println("unknown command:", fields[0])
		}
	}
}
