// Package workload generates YCSB-style operation streams: the core
// workloads A/B/C/D/F the paper's Fig 15 uses, plus the read-only and
// write-only streams of Figs 10-14. Request keys follow either a uniform
// or a Zipfian distribution over the loaded keys (the paper uses normal
// key sets with Zipfian requests in §III-C/D).
package workload

import (
	"math/rand"
)

// OpKind is the type of one operation.
type OpKind uint8

const (
	// OpRead looks up an existing key.
	OpRead OpKind = iota
	// OpUpdate overwrites the value of an existing key.
	OpUpdate
	// OpInsert adds a previously absent key.
	OpInsert
	// OpRMW reads then updates an existing key (YCSB-F).
	OpRMW
	// OpScan reads a short ascending range.
	OpScan
)

// String returns the YCSB name of the op kind.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpInsert:
		return "insert"
	case OpRMW:
		return "rmw"
	case OpScan:
		return "scan"
	}
	return "unknown"
}

// Op is one operation in a stream.
type Op struct {
	Kind OpKind
	Key  uint64
	// ScanLen is the entry count for OpScan.
	ScanLen int
}

// Mix describes a YCSB workload as operation proportions (they must sum
// to 1; Insert ops consume keys from the insert set).
type Mix struct {
	Name    string
	Read    float64
	Update  float64
	Insert  float64
	RMW     float64
	Scan    float64
	Zipfian bool // request distribution over loaded keys
	// Latest skews reads toward recently inserted keys (YCSB-D).
	Latest bool
}

// The paper's workloads (§III-A3, Fig 15).
var (
	// YCSBA is update-mostly: 50% reads, 50% updates, Zipfian.
	YCSBA = Mix{Name: "ycsb-a", Read: 0.5, Update: 0.5, Zipfian: true}
	// YCSBB is read-mostly: 95% reads, 5% updates, Zipfian.
	YCSBB = Mix{Name: "ycsb-b", Read: 0.95, Update: 0.05, Zipfian: true}
	// YCSBC is read-only.
	YCSBC = Mix{Name: "ycsb-c", Read: 1, Zipfian: true}
	// YCSBD is read-latest with inserts: 95% reads of recent keys, 5%
	// inserts of new keys — the mix that stresses insertion+retraining.
	YCSBD = Mix{Name: "ycsb-d", Read: 0.95, Insert: 0.05, Latest: true}
	// YCSBF is read-modify-write: 50% reads, 50% RMW, Zipfian.
	YCSBF = Mix{Name: "ycsb-f", Read: 0.5, RMW: 0.5, Zipfian: true}
	// ReadOnly drives Figs 10-12 (uniform requests).
	ReadOnly = Mix{Name: "read-only", Read: 1}
	// WriteOnly drives Figs 13-14.
	WriteOnly = Mix{Name: "write-only", Insert: 1}
)

// Mixes lists the read-write-mixed workloads of Fig 15.
func Mixes() []Mix { return []Mix{YCSBA, YCSBB, YCSBD, YCSBF} }

// Generator produces a deterministic operation stream for one run.
type Generator struct {
	mix     Mix
	loaded  []uint64 // keys present in the index (sorted)
	inserts []uint64 // keys to insert, consumed in order
	rng     *rand.Rand
	zipf    *rand.Zipf
	nextIns int
	// recent tracks inserted keys for Latest mixes.
	recent []uint64
}

// NewGenerator builds a generator over the loaded key set. inserts may be
// nil for read/update-only mixes.
func NewGenerator(mix Mix, loaded, inserts []uint64, seed int64) *Generator {
	g := &Generator{
		mix:     mix,
		loaded:  loaded,
		inserts: inserts,
		rng:     rand.New(rand.NewSource(seed)),
	}
	if mix.Zipfian && len(loaded) > 0 {
		// YCSB's scrambled Zipfian with theta 0.99.
		g.zipf = rand.NewZipf(g.rng, 1.01, 1, uint64(len(loaded)-1))
	}
	return g
}

// pickExisting selects a loaded key per the request distribution.
func (g *Generator) pickExisting() uint64 {
	if g.mix.Latest && len(g.recent) > 0 && g.rng.Float64() < 0.8 {
		// Read-latest: bias toward the most recent inserts.
		w := len(g.recent)
		if w > 64 {
			w = 64
		}
		return g.recent[len(g.recent)-1-g.rng.Intn(w)]
	}
	if len(g.loaded) == 0 {
		return 0
	}
	if g.zipf != nil {
		// Scramble the rank so hot keys are spread over the key space.
		rank := g.zipf.Uint64()
		idx := (rank * 0x9E3779B97F4A7C15) % uint64(len(g.loaded))
		return g.loaded[idx]
	}
	return g.loaded[g.rng.Intn(len(g.loaded))]
}

// Next returns the next operation and reports false when the stream is
// exhausted (only Insert-consuming mixes exhaust).
func (g *Generator) Next() (Op, bool) {
	r := g.rng.Float64()
	m := g.mix
	switch {
	case r < m.Read:
		return Op{Kind: OpRead, Key: g.pickExisting()}, true
	case r < m.Read+m.Update:
		return Op{Kind: OpUpdate, Key: g.pickExisting()}, true
	case r < m.Read+m.Update+m.Insert:
		if g.nextIns >= len(g.inserts) {
			// Out of fresh keys: degrade to update, stream stays alive.
			return Op{Kind: OpUpdate, Key: g.pickExisting()}, true
		}
		k := g.inserts[g.nextIns]
		g.nextIns++
		if m.Latest {
			g.recent = append(g.recent, k)
		}
		return Op{Kind: OpInsert, Key: k}, true
	case r < m.Read+m.Update+m.Insert+m.RMW:
		return Op{Kind: OpRMW, Key: g.pickExisting()}, true
	default:
		return Op{Kind: OpScan, Key: g.pickExisting(), ScanLen: 1 + g.rng.Intn(100)}, true
	}
}

// Ops materialises n operations (convenient for benchmarks that want to
// exclude generation cost from the measured loop).
func (g *Generator) Ops(n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i], _ = g.Next()
	}
	return ops
}

// InsertStream returns a pure insertion stream over the given keys in a
// deterministic shuffled order — the write-only workload.
func InsertStream(keys []uint64, seed int64) []Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, len(keys))
	perm := rng.Perm(len(keys))
	for i, p := range perm {
		ops[i] = Op{Kind: OpInsert, Key: keys[p]}
	}
	return ops
}
