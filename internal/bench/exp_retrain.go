package bench

import (
	"fmt"
	"runtime"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/learned/alex"
	"learnedpieces/internal/learned/finedex"
	"learnedpieces/internal/learned/fitting"
	"learnedpieces/internal/learned/pgm"
	"learnedpieces/internal/learned/rebuild"
	"learnedpieces/internal/learned/rmi"
	"learnedpieces/internal/learned/rs"
	"learnedpieces/internal/learned/xindex"
	"learnedpieces/internal/stats"
	"learnedpieces/internal/telemetry"
	"learnedpieces/internal/viper"
	"learnedpieces/internal/workload"
)

// retrainBuilders lists every index.AsyncRetrainer adopter, configured
// to retrain often (small reserves/buffers — the Fig 18(c) axis): the
// experiment measures where retrains run, so they have to land in the
// measured percentiles, not beyond them. Default-config retrain rates
// (a few per thousand inserts) only move p99.9.
func retrainBuilders() []struct {
	name string
	mk   func() index.Index
} {
	return []struct {
		name string
		mk   func() index.Index
	}{
		{"rmi-delta", func() index.Index {
			return rebuild.New("rmi-delta", rebuild.Config{Threshold: 1024},
				func() rebuild.Inner { return rmi.New(rmi.DefaultConfig()) })
		}},
		{"rs-delta", func() index.Index {
			return rebuild.New("rs-delta", rebuild.Config{Threshold: 1024},
				func() rebuild.Inner { return rs.New(rs.DefaultConfig()) })
		}},
		{"fiting-inp", func() index.Index {
			return fitting.New(fitting.Config{Mode: fitting.Inplace, Reserve: 64})
		}},
		{"fiting-buf", func() index.Index {
			return fitting.New(fitting.Config{Mode: fitting.Buffer, Reserve: 64})
		}},
		{"pgm", func() index.Index { return pgm.New(pgm.Config{BaseSize: 64}) }},
		{"alex", func() index.Index { return alex.New(alex.DefaultConfig()) }},
		{"xindex", func() index.Index { return xindex.New(xindex.Config{BufferThreshold: 32}) }},
		{"finedex", func() index.Index { return finedex.New(finedex.Config{Eps: 4, BinCap: 8}) }},
	}
}

// RunRetrain measures what moving retrains off the Put path buys. The
// same insert-heavy phase runs per index under sync mode (retrains
// still foreground, but through the pool's accounting) and async mode
// (retrains on background workers, installed copy-on-write); the table
// reports the Put tail that retraining stalls dominate, the retrain
// rate that contextualises it, and the post-drain Get mean that async
// is not allowed to regress.
func RunRetrain(cfg Config) error {
	t := stats.NewTable(fmt.Sprintf("Extension: retrain pipeline, insert-heavy tail (n=%d)", cfg.N),
		"index", "mode", "retrains", "put Mops/s", "put p50(us)", "put p99(us)", "put p99.9(us)", "get mean(us)")
	// Load a quarter, insert three quarters (dataset.Split caps at half,
	// so interleave by hand): the structures grow 4x through the measured
	// phase.
	keys := dataset.Generate(dataset.YCSBNormal, cfg.N, cfg.Seed)
	load := make([]uint64, 0, cfg.N/4)
	inserts := make([]uint64, 0, cfg.N-cfg.N/4)
	for i, k := range keys {
		if i%4 == 0 {
			load = append(load, k)
		} else {
			inserts = append(inserts, k)
		}
	}
	ops := workload.InsertStream(inserts, cfg.Seed+2)
	reads := workload.ReadStream(keys, cfg.Ops, cfg.Seed+3)
	for _, b := range retrainBuilders() {
		if !index.CapsOf(b.mk()).AsyncRetrain {
			return fmt.Errorf("%s does not implement index.AsyncRetrainer", b.name)
		}
		for _, mode := range []viper.RetrainMode{viper.RetrainSync, viper.RetrainAsync} {
			mcfg := cfg
			mcfg.RetrainMode = mode
			// A private sink per run isolates this run's pool counters
			// (the shared session sink keeps aggregating via storeOptions).
			sink := telemetry.New()
			mcfg.Telemetry = sink
			s, err := mcfg.buildStore(b.mk(), load)
			if err != nil {
				return fmt.Errorf("%s: %w", b.name, err)
			}
			putSum, err := runWrites(s, ops, cfg.value())
			if err != nil {
				return fmt.Errorf("%s: %w", b.name, err)
			}
			// Settle the pipeline before reading: pending installs land,
			// and the Get mean reflects the retrained structure. The two
			// modes converge to the same structure but allocate very
			// differently getting there; settle the collector too so the
			// read phase compares structures, not leftover GC debt.
			s.DrainRetrains()
			runtime.GC()
			runtime.GC()
			getSum := mcfg.runReads(s, reads)
			label := "sync"
			if mode == viper.RetrainAsync {
				label = "async"
			}
			t.AddRow(b.name, label, sink.Snapshot().Retrain.Executed, mops(putSum),
				usec(putSum.P50Ns), usec(putSum.P99Ns), usec(putSum.P999Ns),
				fmt.Sprintf("%.2f", getSum.MeanNs/1e3))
			_ = s.Close()
		}
	}
	cfg.render(t)
	return nil
}
