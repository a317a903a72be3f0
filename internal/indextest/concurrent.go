package indextest

import (
	"sync"
	"sync/atomic"

	"learnedpieces/internal/dataset"
)

// The concurrent streams hold an index to its caps' claim of concurrent
// writes: machines on several goroutines each own a partition of the keys
// or read keys another overwrites. Run them under -race, which is half the
// assertion, at a configuration small enough that the writes retrain.
func concurrent(m *machine) bool { return m.caps.ConcurrentWrites }

// parallel runs each fn on its own goroutine with its own shared machine
// over m's index, starting from a copy of m's oracle, waits for them all,
// then folds what each changed back into m's oracle.
func (m *machine) parallel(fns ...func(w *machine)) {
	ws := make([]*machine, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		ws[i] = &machine{t: m.t, idx: m.idx, caps: m.caps, ref: m.ref.clone(), shared: true}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(ws[i])
		}()
	}
	wg.Wait()
	if m.t.Failed() {
		m.t.FailNow()
	}
	next := m.ref.clone()
	for _, w := range ws {
		for k, v := range w.ref.m {
			if bv, ok := m.ref.m[k]; !ok || bv != v {
				next.put(k, v)
			}
		}
		for k := range m.ref.m {
			if _, ok := w.ref.m[k]; !ok {
				next.del(k)
			}
		}
	}
	m.ref = next
}

// striped returns workers functions; the w-th runs do(its machine, i) for
// i = w, w+workers, ... below n.
func striped(n, workers int, do func(w *machine, i int)) []func(*machine) {
	fns := make([]func(*machine), workers)
	for w := range fns {
		fns[w] = func(m *machine) {
			for i := w; i < n; i += workers {
				do(m, i)
			}
		}
	}
	return fns
}

// lcg steps a reader's pseudo-random position.
func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

var concurrentStreams = []stream{
	// Eight writers insert disjoint stripes of a shuffled key set into an
	// empty index; none is lost, and a full scan returns them all in order.
	{"concurrent-writers", concurrent, func(m *machine, _ Factory) {
		order := dataset.Shuffled(dataset.Generate(dataset.YCSBUniform, 40000, 2), 3)
		m.parallel(striped(len(order), 8, func(w *machine, i int) {
			w.do(Op{Kind: Insert, Key: order[i], Val: order[i]})
		})...)
	}},
	// A writer flips every loaded key's value between k and k+1 while
	// readers Get random loaded keys: they must see one of the two values,
	// never a miss, and Len must not move, since an overwrite adds no key.
	{"readers-under-overwrites", concurrent, func(m *machine, _ Factory) {
		keys := dataset.Generate(dataset.YCSBUniform, 8000, 5)
		m.load(keys)
		var stop atomic.Bool
		reader := func(x uint64) func(w *machine) {
			return func(w *machine) {
				w.other = func(k, v uint64) bool { return v == k+1 }
				for x = lcg(x); !stop.Load(); x = lcg(x) {
					w.do(Op{Kind: Get, Key: keys[x%uint64(len(keys))]})
					if n := w.idx.Len(); n != len(keys) {
						w.fail("Len = %d under overwrites, want %d", n, len(keys))
					}
				}
			}
		}
		m.parallel(reader(1), reader(2), func(w *machine) {
			defer stop.Store(true)
			for round := 0; round < 2 && !m.t.Failed(); round++ {
				for _, k := range keys {
					w.do(Op{Kind: Insert, Key: k, Val: k + 1})
					w.do(Op{Kind: InsertReplace, Key: k, Val: k})
				}
			}
		})
	}},
	// Writers insert a second key set into a loaded index while a scanner
	// walks the whole index. Every pass is in order and returns every loaded
	// key with its value; a key being inserted may show up or not.
	{"scan-under-inserts", func(m *machine) bool { return concurrent(m) && m.caps.Range }, func(m *machine, _ Factory) {
		load, inserts := dataset.Split(dataset.Generate(dataset.YCSBUniform, 40000, 45), 20000)
		m.load(load)
		m.parallel(append(striped(len(inserts), 4, func(w *machine, i int) {
			w.do(Op{Kind: Insert, Key: inserts[i], Val: inserts[i]})
		}), func(w *machine) {
			w.other = func(k, v uint64) bool { return v == k }
			for pass := 0; pass < 3; pass++ {
				w.do(Op{Kind: Scan})
			}
		})...)
	}},
	// Sizes, and the depth and retrain counters where the index reports
	// them, walk structure that a writer is changing; they must hold off
	// that writer (the race detector is the assertion).
	{"sizes-under-inserts", concurrent, func(m *machine, _ Factory) {
		keys := dataset.Shuffled(dataset.Generate(dataset.YCSBUniform, 20000, 7), 8)
		m.parallel(func(w *machine) { w.each(Insert, keys, same) }, func(w *machine) {
			for w.idx.Len() < len(keys) && !w.t.Failed() {
				w.do(Op{Kind: Sizes})
			}
		})
		m.do(Op{Kind: Sizes})
	}},
	// Deleters remove every odd-positioned key while readers Get the
	// even-positioned ones, which must stay present with their values;
	// afterwards exactly the odd keys are gone.
	{"readers-beside-deletes", func(m *machine) bool { return concurrent(m) && m.caps.Delete }, func(m *machine, _ Factory) {
		keys := dataset.Generate(dataset.YCSBUniform, 8000, 9)
		m.load(keys)
		deleters := striped(len(keys)/2, 4, func(w *machine, i int) { w.do(Op{Kind: Delete, Key: keys[2*i+1]}) })
		reader := func(x uint64) func(w *machine) {
			return func(w *machine) {
				for x = lcg(x); w.idx.Len() > len(keys)/2 && !w.t.Failed(); x = lcg(x) {
					w.do(Op{Kind: Get, Key: keys[x%uint64(len(keys))&^1]})
				}
			}
		}
		m.parallel(append(deleters, reader(1), reader(2))...)
	}},
}
