package workload

import (
	"encoding/binary"
	"hash/fnv"
	"strings"
	"testing"

	"learnedpieces/internal/dataset"
)

func TestMixProportions(t *testing.T) {
	loaded := dataset.Generate(dataset.YCSBUniform, 10000, 1)
	ins := dataset.Generate(dataset.Sequential, 100000, 0)
	for _, mix := range named {
		t.Run(mix.Name, func(t *testing.T) {
			g := NewGenerator(mix, loaded, ins, 7)
			counts := map[OpKind]int{}
			const n = 50000
			for range n {
				counts[g.Next().Kind]++
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
			check(OpScan, mix.Scan)
		})
	}
}

// TestStreamsPinned pins the first 10,000 ops of every mix that Fig 15,
// Figs 10-14 or the examples draw at one seed, as hashed when viperload
// began drawing from this generator: a change that moves one of them
// changes what those tables measure.
func TestStreamsPinned(t *testing.T) {
	loaded := dataset.Generate(dataset.YCSBUniform, 10000, 1)
	ins := dataset.Generate(dataset.Sequential, 20000, 0)
	want := map[string]uint64{
		"ycsb-a":     0xa704f4dcc40f6895,
		"ycsb-b":     0xec4ac5392809632d,
		"ycsb-c":     0x56e88b7595bb3d2,
		"ycsb-d":     0xc07bb2ba5c22db46,
		"ycsb-f":     0x51fc751305922963,
		"read-only":  0x2bf51d5e2e2aece9,
		"write-only": 0x4b270ccbefa183a8,
	}
	for _, mix := range []Mix{YCSBA, YCSBB, YCSBC, YCSBD, YCSBF, ReadOnly, WriteOnly} {
		g := NewGenerator(mix, loaded, ins, 7)
		h := fnv.New64a()
		var buf [17]byte
		for range 10000 {
			op := g.Next()
			buf[0] = byte(op.Kind)
			binary.LittleEndian.PutUint64(buf[1:], op.Key)
			binary.LittleEndian.PutUint64(buf[9:], uint64(op.ScanLen))
			h.Write(buf[:])
		}
		if got := h.Sum64(); got != want[mix.Name] {
			t.Errorf("%s: stream hash %#x, want %#x", mix.Name, got, want[mix.Name])
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	loaded := dataset.Generate(dataset.YCSBUniform, 10000, 1)
	g := NewGenerator(YCSBC, loaded, nil, 3)
	counts := map[uint64]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[g.Next().Key]++
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
		op := g.Next()
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

// TestScanMix checks the scan share, the length bound (100 by default,
// ScanLen when set) and that Zipfian scan starts stay unscrambled: the
// hottest start is the smallest loaded key.
func TestScanMix(t *testing.T) {
	loaded := dataset.Generate(dataset.YCSBUniform, 1000, 1)
	for _, mix := range []Mix{{Name: "scan-heavy", Read: 0.5, Scan: 0.5}, {Name: "short", Read: 0.5, Scan: 0.5, ScanLen: 7, Zipfian: true}} {
		bound := 100
		if mix.ScanLen > 0 {
			bound = mix.ScanLen
		}
		g := NewGenerator(mix, loaded, nil, 21)
		scans, starts := 0, map[uint64]int{}
		for range 10000 {
			op := g.Next()
			if op.Kind == OpScan {
				scans++
				starts[op.Key]++
				if op.ScanLen < 1 || op.ScanLen > bound {
					t.Fatalf("%s: scan len %d out of [1, %d]", mix.Name, op.ScanLen, bound)
				}
			}
		}
		if scans < 4500 || scans > 5500 {
			t.Fatalf("%s: scan fraction off: %d/10000", mix.Name, scans)
		}
		if mix.Zipfian && starts[loaded[0]] < scans/10 {
			t.Fatalf("%s: %d of %d scans start at the smallest key", mix.Name, starts[loaded[0]], scans)
		}
	}
}

func TestMixNamed(t *testing.T) {
	for _, m := range named {
		if got, err := MixNamed(m.Name); err != nil || got != m {
			t.Fatalf("MixNamed(%q) = %+v, %v", m.Name, got, err)
		}
	}
	if _, err := MixNamed("pareto"); err == nil || !strings.Contains(err.Error(), "pareto") {
		t.Fatalf("MixNamed(pareto) = %v, want an error naming it", err)
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
		kinds[g.Next().Kind]++
	}
	if kinds[OpInsert] != 3 {
		t.Fatalf("inserted %d, want 3", kinds[OpInsert])
	}
	if kinds[OpUpdate] != 97 {
		t.Fatalf("updates %d, want 97", kinds[OpUpdate])
	}
}
