package indextest

import (
	"math/rand"
	"slices"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
)

// scan runs a Scan or Resume op: what the cursors yield is matched against
// the oracle's sorted keys from the start. Pulls at several buffer sizes
// also exercise, under -race, the pooled cursors' reuse across opens.
func (m *machine) scan(o Op) {
	if !m.caps.Range {
		return
	}
	r := m.idx.(index.Ranger)
	keys, vals := m.keys[:0], m.vals[:0]
	switch {
	case o.Kind == Resume:
		// The wire protocol's continuation: cut a walk after n entries,
		// reopen at the last key + 1; the concatenation is the one-shot walk.
		keys, vals = m.pull(r.Range(o.Key), o.N, o.N, keys, vals)
		if len(keys) == o.N && o.N > 0 && keys[o.N-1] < ^uint64(0) {
			keys, vals = m.pull(r.Range(keys[o.N-1]+1), 64, 0, keys, vals)
		}
		o.N = 0
	case o.Buf == 0:
		index.Scan(r, o.Key, 0, func(k, v uint64) bool {
			keys, vals = append(keys, k), append(vals, v)
			return len(keys) != o.N
		})
	default:
		keys, vals = m.pull(r.Range(o.Key), o.Buf, o.N, keys, vals)
	}
	m.keys, m.vals = keys, vals
	// Each entry is the oracle's next key or, on a shared machine, another
	// machine's key that keeps the walk ascending and skips none of ours.
	want, i := m.ref.from(o.Key), 0
	for j, k := range keys {
		next := ^uint64(0)
		if i < len(want) {
			next = want[i]
		}
		own := i < len(want) && k == next
		if !own && (m.other == nil || k < o.Key || k > next || j > 0 && k <= keys[j-1]) || !m.agrees(k, vals[j], true) {
			m.fail("%s from %d: entry %d is (%d,%d), the oracle's next is key %d (%s)", kindNames[o.Kind], o.Key, j, k, vals[j], next, m.want(next))
		}
		if own {
			i++
		}
	}
	if (o.N == 0 || len(keys) < o.N) && i < len(want) {
		m.fail("%s from %d (limit %d) ended after %d entries, missing key %d", kindNames[o.Kind], o.Key, o.N, len(keys), want[i])
	}
}

// pull appends what cur yields to keys and vals, buf at a time, until they
// hold n entries (0: until the range ends), clamping the last pull to the
// limit as index.Scan does, and closes cur. A short pull ends the walk, as
// it does the store's scan: a cursor must fill its buffer until the range
// runs out.
func (m *machine) pull(cur index.Cursor, buf, n int, keys, vals []uint64) ([]uint64, []uint64) {
	defer cur.Close()
	for n == 0 || len(keys) < n {
		ask, at := buf, len(keys)
		if n > 0 {
			ask = min(buf, n-at)
		}
		keys, vals = slices.Grow(keys, ask)[:at+ask], slices.Grow(vals, ask)[:at+ask]
		got := cur.Next(keys[at:], vals[at:])
		if got > ask {
			m.fail("cursor Next yielded %d entries into %d slots", got, ask)
		}
		if keys, vals = keys[:at+got], vals[:at+got]; got < ask {
			break
		}
	}
	return keys, vals
}

// edgeKeys are where model arithmetic and cursor stepping are most likely
// to slip: both ends of the key space and the float64 mantissa cliff (2^53
// and its neighbour share a float64). Every one is also a scan start.
var edgeKeys = []uint64{0, 1, 1 << 53, 1<<53 + 1, 1 << 63, ^uint64(0) - 1, ^uint64(0)}

// loaded gives m's index the scan streams' history: a bulk load of
// uniform keys and the hard keys, then inserts and deletes where the index
// takes them, so a walk crosses layers and splits.
func loaded(m *machine) {
	base := dataset.Generate(dataset.YCSBUniform, 4000, 71)
	m.load(dataset.SortedUnique(slices.Concat(base, hardKeys())))
	if !m.caps.ReadOnly {
		m.each(Insert, dataset.Generate(dataset.YCSBNormal, 500, 72), same)
		for i := 0; i < len(base); i += 17 {
			m.do(Op{Kind: Delete, Key: base[i]})
		}
	}
}

// starts are the scan starts every check walks from: the edge keys, an
// existing mid key and the gap right after it.
func starts(m *machine) []uint64 {
	mid := m.ref.from(0)[len(m.ref.m)/2]
	return append([]uint64{mid, mid + 1}, edgeKeys...)
}

func ranges(m *machine) bool { return m.caps.Range }

var scanStreams = []stream{
	{"scan-order", ranges, func(m *machine, _ Factory) {
		loaded(m)
		for _, buf := range []int{1, 3, 64, 1024} {
			m.do(Op{Kind: Scan, Buf: buf})
		}
		for _, start := range starts(m) {
			m.do(Op{Kind: Scan, Key: start})
		}
	}},
	{"scan-limit", ranges, func(m *machine, _ Factory) {
		loaded(m)
		for _, start := range starts(m) {
			m.do(Op{Kind: Scan, Key: start, N: 37, Buf: 16})
		}
		keys := m.ref.from(0)
		m.do(Op{Kind: Scan, Key: keys[len(keys)-5], N: 100, Buf: 16})
		m.do(Op{Kind: Scan, Key: keys[len(keys)/4], N: 7})
	}},
	{"scan-empty", ranges, func(m *machine, f Factory) {
		start(m.t, f).do(Op{Kind: Scan})
		m.load([]uint64{10, 20, 30})
		m.do(Op{Kind: Scan, Key: 31, N: 10, Buf: 16})
		m.do(Op{Kind: Scan, Key: ^uint64(0), N: 10, Buf: 16})
	}},
	{"cursor-resume", ranges, func(m *machine, _ Factory) {
		loaded(m)
		for _, cut := range []int{1, 13, 200} {
			m.do(Op{Kind: Resume, Key: m.ref.from(0)[len(m.ref.m)/5], N: cut})
		}
	}},
	// The differential open check: a node-based cursor seeks inside the
	// node the descent found, and the seek's corner cases are shapes only a
	// delete history leaves. Runs of keys are deleted, long enough that some
	// node loses its head, some its tail and some every key (one gets one
	// back); the second pass also deletes both ends of the key space. After
	// random deletes and re-inserts a cursor opens at every key ever
	// present and at both its neighbours.
	{"cursor-open", ranges, func(m *machine, f Factory) {
		for _, ends := range []bool{false, true} {
			if ends {
				m = start(m.t, f)
			}
			loaded(m)
			ever := slices.Clone(m.ref.from(0))
			n := len(ever)
			if m.caps.Delete {
				runs := [][2]int{{n / 8, n/8 + 900}, {n / 2, n/2 + 300}, {3 * n / 4, 3*n/4 + 40}}
				if ends {
					runs = append(runs, [2]int{0, 200}, [2]int{n - 200, n})
				}
				for _, r := range runs {
					m.each(Delete, ever[r[0]:r[1]], nil)
				}
				m.do(Op{Kind: Insert, Key: ever[n/8+450], Val: ever[n/8+450]})
				rng := rand.New(rand.NewSource(91))
				for i := 0; i < 600; i++ {
					k := ever[rng.Intn(n)]
					if _, live := m.ref.m[k]; live {
						m.do(Op{Kind: Delete, Key: k})
					} else {
						m.do(Op{Kind: Insert, Key: k, Val: k})
					}
				}
			}
			for _, k := range ever {
				for _, at := range []uint64{k - 1, k, k + 1} { // wrapped ends are starts too
					m.do(Op{Kind: Scan, Key: at, N: 4, Buf: 4})
				}
			}
		}
	}},
}
