package learnedpieces_test

import (
	"flag"
	"testing"
)

// paperTables is every table and figure of the paper, its scan appendix,
// its LIPP, APEX, structure x algorithm and append extensions, and
// DESIGN.md's ablations whose sizes derive from benchN, by benchmark.
var paperTables = []struct {
	name  string
	bench func(b *testing.B)
}{
	{"Table1Registry", BenchmarkTable1Registry},
	{"Table2Build", BenchmarkTable2Build},
	{"Table3Sizes", BenchmarkTable3Sizes},
	{"Fig10ReadOnly", BenchmarkFig10ReadOnly},
	{"Fig11Face", BenchmarkFig11Face},
	{"Fig12ParallelRead", BenchmarkFig12ParallelRead},
	{"Fig13WriteOnly", BenchmarkFig13WriteOnly},
	{"Fig14ConcurrentWrite", BenchmarkFig14ConcurrentWrite},
	{"Fig15Mixed", BenchmarkFig15Mixed},
	{"Fig16Recovery", BenchmarkFig16Recovery},
	{"Fig17aLeafSearch", BenchmarkFig17aLeafSearch},
	{"Fig17bSegmentation", BenchmarkFig17bSegmentation},
	{"Fig17cStructures", BenchmarkFig17cStructures},
	{"Fig17dCombos", BenchmarkFig17dCombos},
	{"Fig18aInsertStrategies", BenchmarkFig18aInsertStrategies},
	{"Fig18bRetraining", BenchmarkFig18bRetraining},
	{"Fig18cBufferSize", BenchmarkFig18cBufferSize},
	{"Fig18dUpdateCost", BenchmarkFig18dUpdateCost},
	{"ScanAppendix", BenchmarkScanAppendix},
	{"ExtensionLIPP", BenchmarkExtensionLIPP},
	{"ExtensionAPEX", BenchmarkExtensionAPEX},
	{"ExtensionCross", BenchmarkExtensionCross},
	{"ExtensionAppendStrategy", BenchmarkExtensionAppendStrategy},
	{"AblationRadixBits", BenchmarkAblationRadixBits},
	{"AblationEpsilon", BenchmarkAblationEpsilon},
	{"AblationPMemLatency", BenchmarkAblationPMemLatency},
}

// TestPaperTablesRun runs every row of every table once at 2k keys,
// so go test alone shows that each table still builds its indexes and
// stores and that no row fails its own checks (a missing key, a failed
// insert, a recovery that loses records).
func TestPaperTablesRun(t *testing.T) {
	defer func(n int) { benchN = n }(benchN)
	benchN = 2_000
	bt := flag.Lookup("test.benchtime")
	defer func(v string) { bt.Value.Set(v) }(bt.Value.String())
	if err := bt.Value.Set("1x"); err != nil {
		t.Fatal(err)
	}
	for _, tb := range paperTables {
		t.Run(tb.name, func(t *testing.T) {
			var failed bool
			testing.Benchmark(func(b *testing.B) {
				tb.bench(b)
				failed = b.Failed()
			})
			if failed {
				t.Fatalf("Benchmark%s failed a row at %d keys", tb.name, benchN)
			}
		})
	}
}
