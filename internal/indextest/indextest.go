// Package indextest checks every index against one reference. An
// interpreter (machine) applies operations (Op) to an index and to a
// sorted-map oracle side by side, and fails at the first answer the two
// disagree on: a Get's value, an InsertReplace's existed, a Delete's
// answer, a GetBatch slot, a cursor's entries, Len after every write. The
// conformance suite is a list of named seeded streams of those operations,
// one per property (Run); the concurrency claims run the same interpreter
// from several goroutines (concurrent.go), and Replay takes any op list,
// such as a fuzzer's. Each index package runs it from its own tests; a
// Restarter (a store over an index) is checked again once rebuilt.
package indextest

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
)

// Factory builds an empty index under test.
type Factory func() index.Index

// stream is one named, seeded op sequence: the check of one property. It
// runs where need admits a probe machine (nil: everywhere), on a machine
// over a fresh index verified whole afterwards; f builds any further one.
type stream struct {
	name string
	need func(probe *machine) bool
	run  func(m *machine, f Factory)
}

// Async and Concurrent name the streams that run only when asked for: the
// retrain-pool checks, and the checks of a claim of concurrent writes.
var (
	Async      = []string{"inline", "async-pool", "async-bulkload-invalidate"}
	Concurrent = []string{"concurrent-writers", "readers-under-overwrites", "scan-under-inserts", "sizes-under-inserts", "readers-beside-deletes"}
)

// Run runs conformance streams against indexes built by f, each as the
// subtest name/<stream>: the named ones, or with none named every stream
// but the Async and Concurrent ones. A stream runs only where the index's
// caps admit it. A read-only index runs the write streams too and must
// refuse every write.
func Run(t *testing.T, name string, f Factory, only ...string) {
	probe := start(t, f)
	all := slices.Concat(streams, scanStreams)
	if len(only) > 0 {
		all = slices.Concat(all, concurrentStreams, asyncStreams)
	}
	for _, n := range only {
		if !slices.ContainsFunc(all, func(s stream) bool { return s.name == n }) {
			t.Fatalf("no stream is named %q", n)
		}
	}
	for _, s := range all {
		if (len(only) == 0 || slices.Contains(only, s.name)) && (s.need == nil || s.need(probe)) {
			t.Run(name+"/"+s.name, func(t *testing.T) {
				m := start(t, f)
				s.run(m, f)
				m.finish()
			})
		}
	}
}

// Replay runs ops against an index built by f, then checks the whole
// index against the oracle.
func Replay(t *testing.T, f Factory, ops []Op) {
	m := start(t, f)
	for _, o := range ops {
		m.do(o)
	}
	m.finish()
}

// Restarter is a target that rebuilds itself from what it persists, by a
// recovery (even n) or a compaction (odd n); neither may change it.
type Restarter interface {
	Restart(n int) error
}

// Kind names an operation of the interpreter.
type Kind uint8

const (
	Insert        Kind = iota // Insert(Key, Val)
	InsertReplace             // InsertReplace(Key, Val): existed is checked
	Delete                    // Delete(Key), where the index deletes
	Get                       // Get(Key)
	GetBatch                  // GetBatch(Keys), where the index batches
	Scan                      // a cursor at Key pulled Buf entries at a time, N of them (0: all); Buf 0 drives index.Scan, its callback stopping after N
	Resume                    // a cursor at Key closed after N entries and reopened past the last of them
	BulkLoad                  // BulkLoad(Keys, Vals), Keys sorted and distinct
	Sizes                     // Sizes, and the depth and retrain reports where caps claim them
	Drain                     // DrainRetrains, where the target has it
	Restart                   // Restart(N), where the target is a Restarter
	NKinds
)

var kindNames = [...]string{"Insert", "InsertReplace", "Delete", "Get", "GetBatch", "Scan", "Resume", "BulkLoad", "Sizes", "Drain", "Restart", "all ops"}

// Op is one operation; which fields count depends on its Kind.
type Op struct {
	Kind       Kind
	Key, Val   uint64
	N, Buf     int
	Keys, Vals []uint64
}

// machine is the interpreter: one index, the oracle of what it must hold,
// and the caps that gate each op.
type machine struct {
	t    testing.TB
	idx  index.Index
	caps index.Caps
	ref  oracle
	// shared marks one of several machines on the index, each on its own
	// goroutine: Len, which they share, goes unchecked per op; other, when
	// set, accepts an answer (k, v) another machine may have written.
	shared bool
	other  func(k, v uint64) bool
	// keys and vals hold a scan's entries, reused from one scan to the next.
	keys, vals []uint64
}

// start builds an index with f and a machine over it, gated by the caps
// the index reports through a Caps method if it has one.
func start(t testing.TB, f Factory) *machine {
	idx := f()
	caps := index.CapsOf(idx)
	if c, ok := idx.(interface{ Caps() index.Caps }); ok {
		caps = c.Caps()
	}
	return &machine{t: t, idx: idx, caps: caps, ref: oracle{m: map[uint64]uint64{}}}
}

// fail reports a disagreement and stops the machine: the test on the
// test's goroutine, only its own goroutine on a shared machine.
func (m *machine) fail(format string, args ...any) {
	m.t.Helper()
	if m.shared {
		m.t.Errorf(format, args...)
		runtime.Goexit()
	}
	m.t.Fatalf(format, args...)
}

// do applies o to the index and the oracle and checks the answer.
func (m *machine) do(o Op) {
	switch o.Kind {
	case Insert:
		if m.wrote(o, m.idx.Insert(o.Key, o.Val)) {
			m.ref.put(o.Key, o.Val)
		}
		m.checkLen(o.Kind, o.Key)
	case InsertReplace:
		existed, err := m.idx.InsertReplace(o.Key, o.Val)
		if want := m.wrote(o, err) && m.ref.put(o.Key, o.Val); existed != want {
			m.fail("InsertReplace(%d) reported existed=%v, want %v", o.Key, existed, want)
		}
		m.checkLen(o.Kind, o.Key)
	case Delete:
		if m.caps.Delete {
			if got, want := m.idx.(index.Deleter).Delete(o.Key), m.ref.del(o.Key); got != want {
				m.fail("Delete(%d) = %v, want %v", o.Key, got, want)
			}
			m.checkLen(o.Kind, o.Key)
		}
	case Get:
		if v, ok := m.idx.Get(o.Key); !m.agrees(o.Key, v, ok) {
			m.fail("Get(%d) = %d,%v, want %s", o.Key, v, ok, m.want(o.Key))
		}
	case GetBatch:
		m.getBatch(o.Keys)
	case Scan, Resume:
		m.scan(o)
	case BulkLoad:
		if err := m.idx.BulkLoad(o.Keys, o.Vals); err != nil {
			m.fail("BulkLoad of %d keys: %v", len(o.Keys), err)
		}
		m.ref.load(o.Keys, o.Vals)
		m.checkLen(o.Kind, 0)
	case Sizes:
		m.sizes()
	case Drain:
		if d, ok := m.idx.(interface{ DrainRetrains() }); ok {
			d.DrainRetrains()
		}
	case Restart:
		if r, ok := m.idx.(Restarter); ok {
			if err := r.Restart(o.N); err != nil {
				m.fail("Restart(%d): %v", o.N, err)
			}
		}
	}
}

// each applies an op of kind k to every key, writing val(key) if set.
func (m *machine) each(k Kind, keys []uint64, val func(uint64) uint64) {
	for _, key := range keys {
		o := Op{Kind: k, Key: key}
		if val != nil {
			o.Val = val(key)
		}
		m.do(o)
	}
}

func same(k uint64) uint64 { return k }
func flip(k uint64) uint64 { return ^k }

// load bulk-loads keys, each its own value.
func (m *machine) load(keys []uint64) { m.do(Op{Kind: BulkLoad, Keys: keys, Vals: keys}) }

// backward returns a reversed copy of keys.
func backward(keys []uint64) []uint64 {
	r := slices.Clone(keys)
	slices.Reverse(r)
	return r
}

// wrote checks a write's error and reports whether the write took effect:
// a read-only index must refuse every write with ErrReadOnly.
func (m *machine) wrote(o Op, err error) bool {
	if ro := m.caps.ReadOnly; errors.Is(err, index.ErrReadOnly) != ro || !ro && err != nil {
		m.fail("%s(%d) = %v on an index with ReadOnly=%v", kindNames[o.Kind], o.Key, err, ro)
	}
	return !m.caps.ReadOnly
}

func (m *machine) checkLen(after Kind, key uint64) {
	if n := m.idx.Len(); !m.shared && n != len(m.ref.m) {
		m.fail("after %s(%d): Len = %d, want %d", kindNames[after], key, n, len(m.ref.m))
	}
}

// agrees reports whether (v, ok) is a right answer for key k.
func (m *machine) agrees(k, v uint64, ok bool) bool {
	rv, rok := m.ref.m[k]
	return ok == rok && (!ok || v == rv) || ok && m.other != nil && m.other(k, v)
}

func (m *machine) want(k uint64) string {
	if v, ok := m.ref.m[k]; ok {
		return fmt.Sprintf("%d,true", v)
	}
	return "a miss"
}

// getBatch checks GetBatch slot by slot, over result slices primed with
// garbage it must overwrite: a miss leaves value 0.
func (m *machine) getBatch(keys []uint64) {
	if !m.caps.BatchGet {
		return
	}
	vals, found := make([]uint64, len(keys)), make([]bool, len(keys))
	for i := range vals {
		vals[i], found[i] = 999_999, i%2 == 0
	}
	m.idx.(index.BatchGetter).GetBatch(keys, vals, found)
	for i, k := range keys {
		if !m.agrees(k, vals[i], found[i]) || !found[i] && vals[i] != 0 {
			m.fail("GetBatch[%d] of %d = %d,%v, want %s", i, k, vals[i], found[i], m.want(k))
		}
	}
}

func (m *machine) sizes() {
	s, n := m.idx.Sizes(), int64(len(m.ref.m))
	if s.Structure < 0 || s.Keys < 0 || s.Values < 0 || !m.shared && n > 0 && (s.Keys < 8*n || s.Total() <= 0) {
		m.fail("Sizes = %+v holding %d keys", s, n)
	}
	d, _ := index.DepthOf(m.idx)
	c, ns, _ := index.RetrainStatsOf(m.idx)
	if d < 0 || c < 0 || ns < 0 {
		m.fail("DepthOf = %v, RetrainStatsOf = %d,%d", d, c, ns)
	}
}

// finish verifies the target, a Restarter also recovered, then compacted.
func (m *machine) finish() {
	m.verify()
	if _, ok := m.idx.(Restarter); ok {
		for n := range 2 {
			m.do(Op{Kind: Restart, N: n})
			m.verify()
		}
	}
}

// verify checks the whole index against the oracle: Len, a Get and a
// GetBatch of every key, and a full scan.
func (m *machine) verify() {
	m.checkLen(NKinds, 0)
	keys := m.ref.from(0)
	m.each(Get, keys, nil)
	m.getBatch(keys)
	m.do(Op{Kind: Scan, Buf: 64})
}

// oracle is the reference: a sorted map. Its sorted keys are built when a
// scan first asks for them, then kept in order until a bulk change.
type oracle struct {
	m       map[uint64]uint64
	sorted  []uint64
	inOrder bool // sorted holds m's keys
}

func (o *oracle) put(k, v uint64) (existed bool) {
	if _, existed = o.m[k]; !existed && o.inOrder {
		i, _ := slices.BinarySearch(o.sorted, k)
		o.sorted = slices.Insert(o.sorted, i, k)
	}
	o.m[k] = v
	return existed
}

func (o *oracle) del(k uint64) bool {
	_, ok := o.m[k]
	if ok && o.inOrder {
		i, _ := slices.BinarySearch(o.sorted, k)
		o.sorted = slices.Delete(o.sorted, i, i+1)
	}
	delete(o.m, k)
	return ok
}

func (o *oracle) load(keys, vals []uint64) {
	o.m, o.inOrder = make(map[uint64]uint64, len(keys)), false
	for i, k := range keys {
		o.m[k] = vals[i]
	}
}

// from returns the sorted keys >= start.
func (o *oracle) from(start uint64) []uint64 {
	if !o.inOrder {
		o.sorted, o.inOrder = make([]uint64, 0, len(o.m)), true
		for k := range o.m {
			o.sorted = append(o.sorted, k)
		}
		slices.Sort(o.sorted)
	}
	i, _ := slices.BinarySearch(o.sorted, start)
	return o.sorted[i:]
}

func (o *oracle) clone() oracle { return oracle{m: maps.Clone(o.m)} }

// hardKeys are where model arithmetic and cursor stepping slip: both ends
// of the key space with a dense run at each, 2^53's neighbours (which share
// a float64), and a cluster behind a prefix that rounds to one float64.
func hardKeys() []uint64 {
	keys := slices.Clone(edgeKeys)
	for i := uint64(0); i < 32; i++ {
		keys = append(keys, 2+i, ^uint64(0)-2-i, 1<<53-16+i, 3<<62|1<<40|i*5)
	}
	return dataset.SortedUnique(keys)
}

func deletes(m *machine) bool  { return m.caps.Delete }
func readOnly(m *machine) bool { return m.caps.ReadOnly }

var streams = []stream{
	{"empty", nil, func(m *machine, _ Factory) {
		m.do(Op{Kind: Get, Key: 42})
		m.do(Op{Kind: Scan, N: 10, Buf: 16})
	}},
	{"insert-get", nil, func(m *machine, _ Factory) {
		for i, k := range dataset.Shuffled(dataset.Generate(dataset.YCSBUniform, 2000, 11), 12) {
			m.do(Op{Kind: Insert, Key: k, Val: k ^ 0xABCD})
			if i%97 == 0 {
				m.do(Op{Kind: Get, Key: k})
			}
		}
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < 500; i++ {
			m.do(Op{Kind: Get, Key: rng.Uint64()})
		}
	}},
	{"update", nil, func(m *machine, _ Factory) {
		m.do(Op{Kind: Insert, Key: 100, Val: 1})
		m.do(Op{Kind: Insert, Key: 100, Val: 2})
	}},
	// InsertReplace, the write a store's Put is made of, and what Get,
	// GetBatch and a cursor at the key then see: clustered keys with both
	// ends of the key space, a third bulk-loaded, deleted keys written back.
	{"upsert", nil, func(m *machine, _ Factory) {
		keys := dataset.SortedUnique(append(dataset.Generate(dataset.OSMLike, 900, 91), 0, ^uint64(0)))
		var load []uint64
		for i := 1; i < len(keys); i += 3 {
			load = append(load, keys[i])
		}
		m.load(load)
		upsert := func(k, v uint64) {
			m.do(Op{Kind: InsertReplace, Key: k, Val: v})
			m.do(Op{Kind: Get, Key: k})
			m.do(Op{Kind: GetBatch, Keys: []uint64{k ^ 1, k, k}})
			m.do(Op{Kind: Scan, Key: k, N: 1, Buf: 1})
		}
		for _, k := range dataset.Shuffled(keys, 92) {
			upsert(k, k^0x5A5A)
		}
		for _, k := range dataset.Shuffled(keys, 93) {
			upsert(k, k+7)
		}
		for i, k := range keys {
			if i%4 == 0 || i == len(keys)-1 {
				m.do(Op{Kind: Delete, Key: k})
				upsert(k, k+9)
			}
		}
	}},
	// Random ops over a small key space: keys are overwritten, deleted, back.
	{"random-model", nil, func(m *machine, _ Factory) {
		rng := rand.New(rand.NewSource(71))
		keyspace := make([]uint64, 300)
		for i := range keyspace {
			keyspace[i] = rng.Uint64()
		}
		for i := 0; i < 20000; i++ {
			o := Op{Key: keyspace[rng.Intn(len(keyspace))]}
			if o.Kind = []Kind{Insert, InsertReplace, Get, Delete}[rng.Intn(4)]; o.Kind == Insert || o.Kind == InsertReplace {
				o.Val = rng.Uint64()
			}
			m.do(o)
		}
	}},
	// What the caps promise: GetBatch over hits and misses, a scan, a
	// delete, the size reports and Gets from four goroutines at once.
	{"caps", nil, func(m *machine, _ Factory) {
		keys := dataset.Generate(dataset.YCSBUniform, 1000, 81)
		m.load(keys)
		probe := slices.Clone(keys[:50])
		for i := uint64(0); i < 20; i++ {
			probe = append(probe, i*2+1)
		}
		m.do(Op{Kind: GetBatch, Keys: probe})
		m.do(Op{Kind: Scan, Buf: 64})
		m.do(Op{Kind: Delete, Key: keys[1]})
		m.do(Op{Kind: Sizes})
		m.parallel(striped(len(keys), 4, func(w *machine, i int) { w.do(Op{Kind: Get, Key: keys[i]}) })...)
	}},
	{"bulkload", nil, func(m *machine, f Factory) {
		for _, n := range []int{0, 1, 2, 63, 64, 65, 5000} {
			keys, vals := dataset.Generate(dataset.OSMLike, n, 21), make([]uint64, n)
			for i, k := range keys {
				vals[i] = k ^ 7
			}
			m = start(m.t, f)
			m.do(Op{Kind: BulkLoad, Keys: keys, Vals: vals})
			m.verify()
		}
	}},
	{"bulk-then-insert", nil, func(m *machine, _ Factory) {
		load, ins := dataset.Split(dataset.Generate(dataset.YCSBNormal, 4000, 31), 1000)
		m.load(load)
		m.each(Insert, dataset.Shuffled(ins, 32), same)
	}},
	{"delete", deletes, func(m *machine, _ Factory) {
		keys := dataset.Generate(dataset.YCSBUniform, 1000, 51)
		m.each(Insert, keys, same)
		for i := 0; i < len(keys); i += 2 {
			m.do(Op{Kind: Delete, Key: keys[i]})
		}
		m.each(Get, keys, nil)
		m.do(Op{Kind: Delete, Key: keys[0]})
		m.do(Op{Kind: Insert, Key: keys[0], Val: 999})
	}},
	{"sizes", nil, func(m *machine, _ Factory) {
		m.load(dataset.Generate(dataset.YCSBUniform, 2000, 61))
		m.do(Op{Kind: Sizes})
	}},
	{"readonly-insert", readOnly, func(m *machine, _ Factory) { // refused, also once rebuilt
		m.do(Op{Kind: Insert, Key: 1, Val: 1})
		m.do(Op{Kind: Restart})
		m.do(Op{Kind: InsertReplace, Key: 2, Val: 2})
	}},
	// Every key distribution loaded; its keys and random absent ones read.
	{"bulk-get-all-kinds", readOnly, func(m *machine, f Factory) {
		for _, kind := range dataset.Kinds() {
			m = start(m.t, f)
			m.load(dataset.Generate(kind, 20000, 5))
			m.verify()
			rng := rand.New(rand.NewSource(6))
			for i := 0; i < 1000; i++ {
				m.do(Op{Kind: Get, Key: rng.Uint64()})
			}
		}
	}},
	// The hard keys written one at a time, scanned from, half deleted, back.
	{"edge-keys", nil, func(m *machine, _ Factory) {
		keys := hardKeys()
		m.each(InsertReplace, dataset.Shuffled(keys, 101), flip)
		m.verify()
		for _, k := range keys {
			m.do(Op{Kind: Scan, Key: k, N: 4, Buf: 4})
		}
		for i := 0; i < len(keys); i += 2 {
			m.do(Op{Kind: Delete, Key: keys[i]})
		}
		m.verify()
		m.each(InsertReplace, backward(keys), same)
	}},
	// The skewed insert orders that break learned indexes first: ascending
	// past the loaded tail (appends), descending below the loaded head.
	{"sorted-inserts", nil, func(m *machine, _ Factory) {
		keys := dataset.Generate(dataset.YCSBNormal, 1000, 102)
		m.load(keys[500:750])
		m.each(Insert, keys[750:], same)
		m.each(Insert, backward(keys[:500]), same)
	}},
	// A loaded index emptied in order, refilled in reverse, emptied, half refilled.
	{"delete-reinsert", deletes, func(m *machine, _ Factory) {
		keys := dataset.Generate(dataset.OSMLike, 600, 103)
		m.load(keys)
		m.each(Delete, keys[:540], nil)
		m.verify()
		m.each(InsertReplace, backward(keys[:540]), flip)
		m.each(Delete, dataset.Shuffled(keys, 104), nil)
		m.verify()
		m.each(Insert, keys[:300], same)
	}},
}
