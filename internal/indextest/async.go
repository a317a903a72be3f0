package indextest

import (
	"math/rand"
	"sync"
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/retrain"
)

// The async streams check the index.AsyncRetrainer contract: one history
// with no pool and with a background pool must read back as the oracle
// says once drained. Reads interleave with the writes, so under -race it
// also exercises the readers-never-block claim against the builders.
func asyncs(m *machine) bool { return m.caps.AsyncRetrain }

// asyncHistory attaches pool (nil: retrain inline) and runs the history:
// a bulk load, then inserts with overwrites, deletes and reads mixed in,
// then a drain. It returns the loaded keys.
func asyncHistory(m *machine, pool *retrain.Pool) []uint64 {
	if pool != nil {
		m.idx.(index.AsyncRetrainer).SetRetrainPool(pool)
	}
	keys := dataset.Generate(dataset.YCSBNormal, 12000, 41)
	load, stream := dataset.Split(keys, 4000)
	shuffled := dataset.Shuffled(stream, 42)
	m.load(load)
	rng := rand.New(rand.NewSource(43))
	for i, k := range shuffled {
		m.do(Op{Kind: Insert, Key: k, Val: k ^ 5})
		switch i % 97 {
		case 13: // overwrite a loaded key
			k := load[rng.Intn(len(load))]
			m.do(Op{Kind: Insert, Key: k, Val: k ^ 9})
		case 31: // delete a loaded key
			if m.caps.Delete {
				m.do(Op{Kind: Delete, Key: load[rng.Intn(len(load))]})
			}
		case 59: // read mid-stream: frozen layers must stay visible
			m.do(Op{Kind: Get, Key: shuffled[rng.Intn(i+1)]})
		}
	}
	m.do(Op{Kind: Drain})
	m.do(Op{Kind: GetBatch, Keys: keys})
	return load
}

var asyncStreams = []stream{
	{"inline", asyncs, func(m *machine, _ Factory) { asyncHistory(m, nil) }},
	{"async-pool", asyncs, func(m *machine, _ Factory) {
		pool := retrain.NewPool(2, 16) // small queue: overflow falls back inline
		defer pool.Close()
		asyncHistory(m, pool)
	}},
	// A BulkLoad racing a pending retrain must win: the stale deposit is
	// generation-checked away.
	{"async-bulkload-invalidate", asyncs, func(m *machine, _ Factory) {
		pool := retrain.NewPool(1, 16)
		defer pool.Close()
		m.load(asyncHistory(m, pool))
		m.do(Op{Kind: Drain})
	}},
}

// RunDrainConverges checks that DrainRetrains leaves a bounded buffer
// however far writes outran the pool: the pool's only worker is held on a
// blocking task while a single-writer index takes far more writes than its
// retrain limit, then DrainRetrains must retrain until buffered() (the
// live buffer's size) is below limit — not install one retrain and return
// — and every key must still read back.
func RunDrainConverges(t *testing.T, idx interface {
	index.Index
	index.AsyncRetrainer
}, limit int, buffered func() int) {
	t.Helper()
	pool := retrain.NewPool(1, 0)
	defer pool.Close()
	gate, started := make(chan struct{}), make(chan struct{})
	pool.Submit("blocker", func() { close(started); <-gate })
	<-started
	var release sync.Once
	defer release.Do(func() { close(gate) }) // a failure must not leave Close waiting on the blocker
	idx.SetRetrainPool(pool)
	m := &machine{t: t, idx: idx, caps: index.CapsOf(idx), ref: oracle{m: map[uint64]uint64{}}}
	load, inserts := dataset.Split(dataset.Generate(dataset.YCSBNormal, 40000, 51), 20000)
	m.load(load)
	m.each(Insert, dataset.Shuffled(inserts, 52), same)
	if n := buffered(); n < 4*limit {
		t.Fatalf("only %d writes buffered behind a busy pool, want at least %d", n, 4*limit)
	}
	release.Do(func() { close(gate) })
	m.do(Op{Kind: Drain})
	if n := buffered(); n >= limit {
		t.Fatalf("%d writes still buffered after DrainRetrains, limit %d", n, limit)
	}
	m.verify()
}
