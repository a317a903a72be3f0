// Command benchmark is the KV service's one benchmark: four workloads,
// eleven end-to-end metrics, and a per-layer ledger measured from
// outside the layers. README.md explains the workloads and how to read
// the output; BENCHMARK.json is the driver's view of the same contract.
//
//	bash benchmark/run.sh -seed 1                      # all workloads, untraced then traced
//	bash benchmark/run.sh --workload read-uniform --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh -compare a/result.json b/result.json
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		o       options
		only    = flag.String("workload", "", "run one workload (default: all four)")
		trace   = flag.Int("trace", -1, "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics); default: both")
		compare = flag.Bool("compare", false, "compare two result files given as arguments; exit 1 on a regression")
	)
	flag.Int64Var(&o.seed, "seed", 1, "seed of the dataset and the op streams")
	flag.Float64Var(&o.seconds, "seconds", 15, "measured seconds per untraced run (converted to fixed op counts)")
	flag.Float64Var(&o.scale, "scale", 1, "dataset size as a share of 1 M keys")
	flag.StringVar(&o.outDir, "out", "out", "directory for result.json and trace-<workload>.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	todo := workloads
	if *only != "" {
		w := workloadByName(*only)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *only)
			os.Exit(2)
		}
		todo = []workload{*w}
	}
	modes := []bool{false, true}
	if *trace >= 0 {
		modes = []bool{*trace == 1}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	file := &resultFile{Header: newHeader(o)}
	fmt.Printf("# nproc=%d gomaxprocs=%d go=%s commit=%s seed=%d scale=%g seconds=%g\n",
		file.Header.NProc, file.Header.GOMAXPROCS, file.Header.GoVersion, commit, o.seed, o.scale, o.seconds)
	ok := true
	var last *runResult
	for _, mode := range modes {
		for i := range todo {
			o.trace = mode
			res, err := runWorkload(&todo[i], o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", todo[i].name, err)
				os.Exit(2)
			}
			fmt.Printf("# %s trace=%d op_stream_fnv64=%s attempted=%d failed=%d\n",
				res.Workload, res.Trace, res.Fingerprint, res.Attempted, res.Failed)
			res.print()
			file.Runs = append(file.Runs, res)
			ok = ok && res.Correct
			last = res
		}
	}
	if err := writeResults(o.outDir, file); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if len(file.Runs) == 1 {
		// The driver's contract: the last line is the run's result.
		fmt.Println(last.contractLine())
	}
	if !ok {
		os.Exit(1)
	}
}
