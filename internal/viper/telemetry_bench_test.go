package viper

import (
	"testing"

	"learnedpieces/internal/btree"
	"learnedpieces/internal/dataset"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/telemetry"
)

// BenchmarkTelemetryOverhead measures the hot-path cost of the
// observability layer: the same Get/Put loops with no sink attached
// (nil-receiver no-op metrics) and with a live sink recording. The NVM
// latency model is off so the telemetry delta is visible against the
// raw store path rather than hidden under simulated device stalls; the
// budget is <=5% on both paths (see DESIGN.md).
func BenchmarkTelemetryOverhead(b *testing.B) {
	const n = 200_000
	keys := dataset.Generate(dataset.YCSBUniform, n, 1)
	value := make([]byte, 64)

	modes := []struct {
		name string
		sink *telemetry.Sink
	}{
		{"off", nil},
		{"on", telemetry.New()},
	}
	for _, m := range modes {
		opts := []Option{WithValueSize(len(value))}
		if m.sink != nil {
			opts = append(opts, WithTelemetry(m.sink))
		}
		s := Open(pmem.NewRegion(1<<30, pmem.None()), btree.New(), opts...)
		if err := s.BulkPut(keys, value); err != nil {
			b.Fatal(err)
		}
		b.Run("get/"+m.name, func(b *testing.B) {
			reportDevice(b, deviceDelta(s.Region(), func() {
				for i := 0; i < b.N; i++ {
					if _, ok := s.Get(keys[i%n]); !ok {
						b.Fatal("missing key")
					}
				}
			}))
		})
		b.Run("put/"+m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := s.Put(keys[i%n], value); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
