package workload

import (
	"testing"

	"learnedpieces/internal/dataset"
)

func TestMixProportions(t *testing.T) {
	loaded := dataset.Generate(dataset.YCSBUniform, 10000, 1)
	ins := dataset.Generate(dataset.Sequential, 100000, 0)
	for _, mix := range []Mix{YCSBA, YCSBB, YCSBC, YCSBD, YCSBF, ReadOnly, WriteOnly} {
		mix := mix
		t.Run(mix.Name, func(t *testing.T) {
			g := NewGenerator(mix, loaded, ins, 7)
			counts := map[OpKind]int{}
			const n = 50000
			for i := 0; i < n; i++ {
				op, ok := g.Next()
				if !ok {
					t.Fatalf("stream ended at %d", i)
				}
				counts[op.Kind]++
			}
			check := func(kind OpKind, want float64) {
				got := float64(counts[kind]) / n
				if want == 0 && got != 0 {
					t.Errorf("%v: got %.3f, want 0", kind, got)
				}
				if want > 0 && (got < want-0.02 || got > want+0.02) {
					t.Errorf("%v: got %.3f, want %.3f", kind, got, want)
				}
			}
			check(OpRead, mix.Read)
			check(OpUpdate, mix.Update)
			check(OpInsert, mix.Insert)
			check(OpRMW, mix.RMW)
		})
	}
}

func TestDeterministicStreams(t *testing.T) {
	loaded := dataset.Generate(dataset.YCSBUniform, 1000, 1)
	a := NewGenerator(YCSBA, loaded, nil, 42).Ops(1000)
	b := NewGenerator(YCSBA, loaded, nil, 42).Ops(1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	loaded := dataset.Generate(dataset.YCSBUniform, 10000, 1)
	g := NewGenerator(YCSBC, loaded, nil, 3)
	counts := map[uint64]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		op, _ := g.Next()
		counts[op.Key]++
	}
	// Top key should be requested far more often than the uniform rate.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < n/1000 {
		t.Fatalf("zipfian top key only %d/%d requests", max, n)
	}
	// All requested keys must come from the loaded set.
	for k := range counts {
		found := false
		for _, lk := range loaded {
			if lk == k {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("request for unloaded key %d", k)
		}
	}
}

func TestLatestBiasesRecentInserts(t *testing.T) {
	loaded := dataset.Generate(dataset.YCSBUniform, 1000, 1)
	ins := dataset.Generate(dataset.Sequential, 5000, 0)
	g := NewGenerator(YCSBD, loaded, ins, 9)
	recentReads := 0
	reads := 0
	inserted := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		op, _ := g.Next()
		switch op.Kind {
		case OpInsert:
			inserted[op.Key] = true
		case OpRead:
			reads++
			if inserted[op.Key] {
				recentReads++
			}
		}
	}
	if frac := float64(recentReads) / float64(reads); frac < 0.5 {
		t.Fatalf("read-latest bias too weak: %.2f of reads hit inserted keys", frac)
	}
}

func TestInsertStreamIsPermutation(t *testing.T) {
	keys := dataset.Generate(dataset.YCSBUniform, 2000, 2)
	ops := InsertStream(keys, 11)
	if len(ops) != len(keys) {
		t.Fatalf("got %d ops", len(ops))
	}
	seen := make(map[uint64]bool, len(keys))
	for _, op := range ops {
		if op.Kind != OpInsert {
			t.Fatal("non-insert op in insert stream")
		}
		if seen[op.Key] {
			t.Fatalf("duplicate key %d", op.Key)
		}
		seen[op.Key] = true
	}
}

func TestScanMix(t *testing.T) {
	loaded := dataset.Generate(dataset.YCSBUniform, 1000, 1)
	mix := Mix{Name: "scan-heavy", Read: 0.5, Scan: 0.5}
	g := NewGenerator(mix, loaded, nil, 21)
	scans := 0
	for i := 0; i < 10000; i++ {
		op, _ := g.Next()
		if op.Kind == OpScan {
			scans++
			if op.ScanLen < 1 || op.ScanLen > 100 {
				t.Fatalf("scan len %d out of range", op.ScanLen)
			}
		}
	}
	if scans < 4500 || scans > 5500 {
		t.Fatalf("scan fraction off: %d/10000", scans)
	}
}

func TestOpKindStrings(t *testing.T) {
	want := map[OpKind]string{
		OpRead: "read", OpUpdate: "update", OpInsert: "insert",
		OpRMW: "rmw", OpScan: "scan", OpKind(99): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestInsertExhaustionDegradesToUpdate(t *testing.T) {
	loaded := dataset.Generate(dataset.YCSBUniform, 100, 1)
	ins := []uint64{1, 2, 3}
	g := NewGenerator(Mix{Name: "ins", Insert: 1}, loaded, ins, 5)
	kinds := map[OpKind]int{}
	for i := 0; i < 100; i++ {
		op, ok := g.Next()
		if !ok {
			t.Fatal("stream ended")
		}
		kinds[op.Kind]++
	}
	if kinds[OpInsert] != 3 {
		t.Fatalf("inserted %d, want 3", kinds[OpInsert])
	}
	if kinds[OpUpdate] != 97 {
		t.Fatalf("updates %d, want 97", kinds[OpUpdate])
	}
}
