package viper

import (
	"fmt"
	"runtime"
	"testing"

	"learnedpieces/internal/btree"
	"learnedpieces/internal/dataset"
	"learnedpieces/internal/learned/rs"
	"learnedpieces/internal/parallel"
	"learnedpieces/internal/pmem"
)

// The bulk-path benchmarks run the paper's PMem environment (Optane
// latency model) on the 1M-key dataset, once with the fan-out pinned to
// one worker (the old serial path) and once at the machine's core count.
// On a single-core box the two collapse to the same number; at 4+ cores
// the scan/copy phases overlap device latency and scale near-linearly.
const benchBulkN = 1_000_000

func benchValue() []byte {
	v := make([]byte, DefaultValueSize)
	copy(v, "bench-value")
	return v
}

func benchRegion() *pmem.Region {
	return pmem.NewRegion(512<<20, pmem.Optane())
}

// reportDevice publishes what the benchmark's ops cost the device (a
// deviceDelta) as accesses and 256-byte lines read per op. Both are exact
// counters, the same on every machine.
func reportDevice(b *testing.B, d pmem.AccessStats) {
	b.ReportMetric(float64(d.Reads)/float64(b.N), "reads/op")
	b.ReportMetric(float64(d.LineReads)/float64(b.N), "lines/op")
}

// benchModes pins the worker count per sub-benchmark.
func benchModes() []struct {
	name    string
	workers int
} {
	return []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{fmt.Sprintf("parallel-%dcpu", runtime.NumCPU()), 0},
	}
}

func BenchmarkRecover(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBUniform, benchBulkN, 1)
	s := Open(benchRegion(), rs.New(rs.DefaultConfig()))
	if err := s.BulkPut(keys, benchValue()); err != nil {
		b.Fatal(err)
	}
	for _, m := range benchModes() {
		b.Run(m.name, func(b *testing.B) {
			defer parallel.SetWorkers(parallel.SetWorkers(m.workers))
			b.ResetTimer()
			reportDevice(b, deviceDelta(s.Region(), func() {
				for i := 0; i < b.N; i++ {
					if err := s.Recover(rs.New(rs.DefaultConfig())); err != nil {
						b.Fatal(err)
					}
				}
			}))
		})
	}
}

func BenchmarkBulkPut(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBUniform, benchBulkN, 1)
	v := benchValue()
	for _, m := range benchModes() {
		b.Run(m.name, func(b *testing.B) {
			defer parallel.SetWorkers(parallel.SetWorkers(m.workers))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := Open(benchRegion(), rs.New(rs.DefaultConfig()))
				b.StartTimer()
				if err := s.BulkPut(keys, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCompact(b *testing.B) {
	keys := dataset.Generate(dataset.YCSBUniform, benchBulkN/4, 1)
	for _, m := range benchModes() {
		b.Run(m.name, func(b *testing.B) {
			defer parallel.SetWorkers(parallel.SetWorkers(m.workers))
			var dev pmem.AccessStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := Open(benchRegion(), btree.New())
				if err := s.BulkPut(keys, benchValue()); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				d := deviceDelta(s.Region(), func() {
					if _, err := s.Compact(btree.New()); err != nil {
						b.Fatal(err)
					}
				})
				dev.Reads += d.Reads
				dev.LineReads += d.LineReads
			}
			reportDevice(b, dev)
		})
	}
}

// BenchmarkMultiGet compares per-key Gets with the batched read path,
// which looks the batch up in key order in groups of about √n keys and
// reads each group's records in offset order while the next group
// descends (ns/op is per key in all sub-benchmarks). Each batch size runs twice:
// "keyloop" disables the BatchGetter seam so MultiGet resolves each
// group key at a time, "batch" is the interleaved batch kernel — the pair
// isolates what the lockstep search buys. The "dram" region injects no
// device latency, so the index phase is all the time there is; on
// "pmem", the paper's Optane model, each group's descents run inside the
// stalls the earlier groups asked for, so what shows is the first
// group's descents, the last group's stall and whatever outlasts a
// stall.
func BenchmarkMultiGet(b *testing.B) {
	const n = 1_000_000
	keys := dataset.Generate(dataset.YCSBUniform, n, 1)
	stream := dataset.Generate(dataset.YCSBUniform, n, 1) // same keys, lookup order
	runBatch := func(s *Store, batch int) func(b *testing.B) {
		return func(b *testing.B) {
			buf := make([]uint64, batch)
			reportDevice(b, deviceDelta(s.Region(), func() {
				for i := 0; i < b.N; i += batch {
					base := i % (n - batch)
					copy(buf, stream[base:base+batch])
					vals := s.MultiGet(buf)
					for _, v := range vals {
						if v == nil {
							b.Fatal("missing key")
						}
					}
				}
			}))
		}
	}
	for _, mode := range []struct {
		name string
		lat  pmem.LatencyModel
	}{{"dram", pmem.None()}, {"pmem", pmem.Optane()}} {
		b.Run(mode.name, func(b *testing.B) {
			s := Open(pmem.NewRegion(512<<20, mode.lat), rs.New(rs.DefaultConfig()))
			if err := s.BulkPut(keys, benchValue()); err != nil {
				b.Fatal(err)
			}
			b.Run("get", func(b *testing.B) {
				reportDevice(b, deviceDelta(s.Region(), func() {
					for i := 0; i < b.N; i++ {
						if _, ok := s.Get(stream[i%n]); !ok {
							b.Fatal("missing key")
						}
					}
				}))
			})
			for _, batch := range []int{8, 64, 256} {
				b.Run(fmt.Sprintf("keyloop-%d", batch), func(b *testing.B) {
					// Publish a view with the batch seam masked so MultiGet
					// takes the key-at-a-time fallback, then restore it.
					saved := s.view.Load()
					masked := *saved
					masked.seam.Batch = nil
					s.view.Publish(&masked)
					defer func() {
						restored := *saved
						s.view.Publish(&restored)
					}()
					runBatch(s, batch)(b)
				})
				b.Run(fmt.Sprintf("batch-%d", batch), runBatch(s, batch))
			}
		})
	}
}
