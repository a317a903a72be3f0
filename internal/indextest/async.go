package indextest

import (
	"math/rand"
	"sync"
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/retrain"
)

// RunAsyncEquivalence checks the index.AsyncRetrainer contract as a
// property: the same operation sequence applied with no pool and with a
// background pool must read back identically once DrainRetrains has
// run. The async variant interleaves
// reads with the writes, so under -race this also exercises the
// readers-never-block claim against the background builders.
func RunAsyncEquivalence(t *testing.T, name string, f Factory) {
	if _, ok := f().(index.AsyncRetrainer); !ok {
		t.Skipf("%s does not implement index.AsyncRetrainer", name)
	}
	const n = 12000
	keys := dataset.Generate(dataset.YCSBNormal, n, 41)
	load, stream := dataset.Split(keys, n/3)
	shuffled := dataset.Shuffled(stream, 42)

	// run applies the canonical sequence: bulk load, an insert phase with
	// interleaved overwrites, deletes and point reads, then a drain.
	run := func(t *testing.T, idx index.Index, pool *retrain.Pool) map[uint64]uint64 {
		t.Helper()
		if pool != nil {
			idx.(index.AsyncRetrainer).SetRetrainPool(pool)
		}
		if err := idx.BulkLoad(load, load); err != nil {
			t.Fatal(err)
		}
		want := make(map[uint64]uint64, n)
		for _, k := range load {
			want[k] = k
		}
		del, _ := idx.(index.Deleter)
		rng := rand.New(rand.NewSource(43))
		for i, k := range shuffled {
			if err := idx.Insert(k, k^5); err != nil {
				t.Fatal(err)
			}
			want[k] = k ^ 5
			switch i % 97 {
			case 13: // overwrite an already-present key
				ok := load[rng.Intn(len(load))]
				if err := idx.Insert(ok, ok^9); err != nil {
					t.Fatal(err)
				}
				want[ok] = ok ^ 9
			case 31: // delete a loaded key
				if del != nil {
					dk := load[rng.Intn(len(load))]
					del.Delete(dk)
					delete(want, dk)
				}
			case 59: // read mid-stream: frozen layers must stay visible
				rk := shuffled[rng.Intn(i+1)]
				if wv, live := want[rk]; live {
					if v, ok := idx.Get(rk); !ok || v != wv {
						t.Fatalf("mid-stream get(%d) = %d,%v want %d", rk, v, ok, wv)
					}
				}
			}
		}
		if pool != nil {
			idx.(index.AsyncRetrainer).DrainRetrains()
		}
		return want
	}

	check := func(t *testing.T, idx index.Index, want map[uint64]uint64) {
		t.Helper()
		if idx.Len() != len(want) {
			t.Fatalf("Len = %d, want %d", idx.Len(), len(want))
		}
		for k, wv := range want {
			if v, ok := idx.Get(k); !ok || v != wv {
				t.Fatalf("get(%d) = %d,%v want %d", k, v, ok, wv)
			}
		}
		if bg, ok := idx.(index.BatchGetter); ok {
			vals := make([]uint64, len(keys))
			found := make([]bool, len(keys))
			bg.GetBatch(keys, vals, found)
			for i, k := range keys {
				wv, live := want[k]
				if found[i] != live || (live && vals[i] != wv) {
					t.Fatalf("batch get(%d) = %d,%v want %d,%v", k, vals[i], found[i], wv, live)
				}
			}
		}
		if r, ok := idx.(index.Ranger); ok && index.CapsOf(idx).Range {
			seen := 0
			prev := uint64(0)
			index.Scan(r, 0, 0, func(k, v uint64) bool {
				if seen > 0 && k <= prev {
					t.Fatalf("scan out of order: %d after %d", k, prev)
				}
				prev = k
				if wv, live := want[k]; !live || v != wv {
					t.Fatalf("scan visited %d=%d, want %d (live=%v)", k, v, wv, live)
				}
				seen++
				return true
			})
			if seen != len(want) {
				t.Fatalf("scan visited %d entries, want %d", seen, len(want))
			}
		}
	}

	t.Run(name+"/inline", func(t *testing.T) {
		idx := f()
		check(t, idx, run(t, idx, nil))
	})
	t.Run(name+"/async-pool", func(t *testing.T) {
		pool := retrain.NewPool(2, 16) // small queue: overflow falls back inline
		defer pool.Close()
		idx := f()
		check(t, idx, run(t, idx, pool))
	})
	t.Run(name+"/async-bulkload-invalidate", func(t *testing.T) {
		// A BulkLoad racing a pending retrain must win: the stale deposit
		// is generation-checked away.
		pool := retrain.NewPool(1, 16)
		defer pool.Close()
		idx := f()
		run(t, idx, pool)
		if err := idx.BulkLoad(load, load); err != nil {
			t.Fatal(err)
		}
		idx.(index.AsyncRetrainer).DrainRetrains()
		want := make(map[uint64]uint64, len(load))
		for _, k := range load {
			want[k] = k
		}
		check(t, idx, want)
	})
}

// RunDrainConverges checks that DrainRetrains leaves a bounded buffer
// however far writes outran the pool: the pool's only worker is held on
// a blocking task while a single-writer index takes far more writes than
// its retrain limit, then DrainRetrains must retrain until buffered()
// (the live buffer's size) is below limit — not install one retrain and
// return — and every key must still read back.
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

	load, inserts := dataset.Split(dataset.Generate(dataset.YCSBNormal, 40000, 51), 20000)
	if err := idx.BulkLoad(load, load); err != nil {
		t.Fatal(err)
	}
	for _, k := range dataset.Shuffled(inserts, 52) {
		if err := idx.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if n := buffered(); n < 4*limit {
		t.Fatalf("only %d writes buffered behind a busy pool, want at least %d", n, 4*limit)
	}
	release.Do(func() { close(gate) })
	idx.DrainRetrains()
	if n := buffered(); n >= limit {
		t.Fatalf("%d writes still buffered after DrainRetrains, limit %d", n, limit)
	}
	if got, want := idx.Len(), len(load)+len(inserts); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	for _, keys := range [][]uint64{load, inserts} {
		for _, k := range keys {
			if v, ok := idx.Get(k); !ok || v != k {
				t.Fatalf("get(%d) = %d,%v after the drain", k, v, ok)
			}
		}
	}
}
