package core

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"learnedpieces/internal/btree"
	"learnedpieces/internal/index"
	"learnedpieces/internal/indextest"
	"learnedpieces/internal/learned/alex"
	"learnedpieces/internal/learned/finedex"
	"learnedpieces/internal/learned/flat"
	"learnedpieces/internal/learned/pgm"
	"learnedpieces/internal/learned/xindex"
	"learnedpieces/internal/viper"
)

// fuzzEntry is an index the fuzzers drive and the options of a store
// over it.
type fuzzEntry struct {
	new   func() index.Index
	store []viper.Option
}

// async runs a store's retrains on its background pool.
var async = []viper.Option{viper.WithRetrainMode(viper.RetrainAsync)}

// fuzzTable is the one table both fuzzers pick from with an input's first
// byte: the registry at its default configs, then eight small configs
// whose splits, flushes and retrains a short input reaches (smallBase on):
// a btree; pgm, rmi-delta and rs-delta with 8-key buffers, whose flushes
// (pgm's cascades included) and rebuilds run on a store's background pool;
// xindex with 8-key buffers and groups and finedex with 8-key bins and a
// model bound of 4, compacting, splitting and retraining inline; the
// FITing-tree buffer preset with an 8-key leaf buffer, whose leaf rebuilds
// run on the pool and are installed, with the writes logged meanwhile
// replayed, at the next write or drain; and alex with 16-key data nodes,
// whose expands run on the pool the same way while full nodes expand and
// split on the spot.
var fuzzTable = func() []fuzzEntry {
	var t []fuzzEntry
	for _, e := range Registry() {
		t = append(t, fuzzEntry{new: e.New})
	}
	return append(t, []fuzzEntry{
		{func() index.Index { return btree.New() }, nil},
		{func() index.Index { return pgm.New(pgm.Config{BaseSize: 8}) }, async},
		{func() index.Index {
			return flat.NewDelta(flat.NewRMI(flat.RMIConfig{}), flat.DeltaConfig{Threshold: 8})
		}, async},
		{func() index.Index { return xindex.New(xindex.Config{GroupSize: 8, BufferThreshold: 8}) }, nil},
		{func() index.Index { return finedex.New(finedex.Config{Eps: 4, BinCap: 8}) }, nil},
		{func() index.Index {
			return Compose(OptPLA{Eps: 32}, NewBTreeTop(), BufferInsert{Size: 8}, RetrainNode{})
		}, async},
		{func() index.Index { return alex.New(alex.Config{MaxLeafKeys: 16}) }, async},
		{func() index.Index { return flat.NewDelta(flat.NewRS(flat.RSConfig{}), flat.DeltaConfig{Threshold: 8}) }, async},
	}...)
}()

// smallBase is the table position of the first small config.
var smallBase = byte(len(Registry()))

// addSeeds gives f the scenarios and, for every table entry, every op
// kind once, alone and behind a bulk load of up to 20 keys.
func addSeeds(f *testing.F) {
	var seed []byte
	for k := byte(0); k < byte(indextest.NKinds); k++ {
		seed = append(seed, k|0x30, k, 7*k+1, k+3, 0xFF-k)
	}
	for i := range fuzzTable {
		f.Add(append([]byte{byte(i)}, seed...))
		f.Add(append([]byte{byte(i), 0x57}, seed...))
	}
	for _, s := range scenarios {
		f.Add(s)
	}
}

// FuzzIndexOps drives a table index through the indextest interpreter,
// which checks every answer against its sorted-map oracle. The input's
// first byte picks the entry; the rest decodes to ops whose keys lean
// toward where indexes break: 0 and 2^64-1, dense runs, 2^53's neighbours
// (which share a float64), and clusters behind a shared prefix.
func FuzzIndexOps(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 {
			indextest.Replay(t, fuzzTable[int(data[0])%len(fuzzTable)].new, decodeOps(data[1:]))
		}
	})
}

// FuzzStoreOps drives a store over a table index through the same
// interpreter and decoder (store_test.go's target), so the whole store is
// checked again after a recovery and after a compaction at the end. Ops
// past the input's first 3000 bytes are cut: the mutator grows inputs to
// a megabyte, and the store's region is 4 MiB.
func FuzzStoreOps(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 {
			e := fuzzTable[int(data[0])%len(fuzzTable)]
			indextest.Replay(t, storeFactory(t, e.new, e.store...), decodeOps(data[1:min(len(data), 3000)]))
		}
	})
}

// scenarios are seeds on the small configs: smallBase is the btree, +1
// pgm, +2 rmi-delta, +3 xindex, +4 finedex, +5 fiting-buf, +6 alex, +7
// rs-delta. Their retrains and installs are the index's; the recoveries,
// compactions and the payloads' log layout are the store's.
var scenarios = [][]byte{
	// A tombstone, then the key written back and a recovery. (A BulkPut
	// behind a log with that tombstone is TestBulkPutLayout's.)
	seed(smallBase, "p7 d7 p5-9 g7 r0"),
	seed(smallBase, "p1 p2 p1 r1 p2 r0"),
	// Key 0 and the largest key, written, deleted, written back.
	seed(smallBase, "p0 d0 p0 p0 d0 s0/0/4 p255 r0"),
	// Restarts in a row, each followed by a Put: a store opened over the
	// log writes on in its newest page, so the 4 MiB region never fills.
	seed(smallBase, "p1 r0 p1 r0 p1 r0 p1 r0 p1 r0 p1 r0 p1"),
	// Compactions in a row behind a bulk load, each reusing the pages the
	// one before retired.
	seed(smallBase, "l0-59 p9 r1 p9 r1 p9 r1 p9 r1"),
	// pgm: the second flush cascades into run 1 and may still be in flight
	// at the compaction; the fresh index cascades again into run 2, under
	// a MultiGet.
	seed(smallBase+1, "p1-16 r1 p17-32 b1:1,9,17,20,31,99 s0/0/3 D g20 r0"),
	// pgm: the Delete's tombstone completes the buffer, so it is frozen
	// (and being flushed) when the recovery drops the index.
	seed(smallBase+1, "p1-8 D p9-15 d3 g3 r0 g3 s0/0/4"),
	// rmi-delta: a tombstone and an overwrite of keys the first rebuild
	// holds, read through Range over the buffers, then folded into the
	// base by a second rebuild that the drain finishes.
	seed(smallBase+2, "p1-8 d2 p5 s0/0/2 p20-25 s1/15/4 D g5 g2 r0"),
	// xindex: compactions over a bulk-loaded group, deletes of buffered and
	// compacted keys, key 2^64-1, a scan across them.
	seed(smallBase+3, "l0-40 p100-130 d10 d120 p255 s5/0/3 r1 s0/0/4"),
	// xindex: keys written below the loaded ones until the first group
	// splits; the parts' pivots must stay sorted.
	seed(smallBase+3, "l100-159 p1-40 g1-40"),
	// finedex: bins split into levels and the segment retrains, with
	// tombstones over base keys carried through the retrain.
	seed(smallBase+4, "l0-59 p60-120 d3 d70 g3 s0/0/4 p121-200 s60/15/4"),
	// finedex: two clusters written below the loaded keys retrain the
	// first segment into several; the segment table must stay sorted.
	seed(smallBase+4, "l200-251 p1-40 p100-140 g1-40 g100-140"),
	// fiting-buf: the eighth Put fills the leaf buffer and hands its
	// rebuild to the pool; the Deletes that follow (of a buffered key, then
	// of keys the rebuild folds into the base) hit the leaf while it may
	// still be retraining, so they are logged and replayed at the install.
	seed(smallBase+5, "p1-8 d3 g3 p9-16 d1 d12 p3 s0/0/4 D g12 r0"),
	// alex: the fourth Put fills the root data node and submits its
	// expand to the pool. The overwrites and Deletes that follow leave the
	// node's gaps alone, so they hit it while the expand is in flight (the
	// worker takes microseconds to wake) and are logged; the Drain installs
	// the expand and replays them. The later Puts expand and split the
	// node.
	seed(smallBase+6, "p10-13 p11 d12 p13 d10 g12 D p20-40 p30 d25 p33 D s0/0/4 r0"),
	// MultiGet over log neighbours whose values run past the declared size
	// (stragglers inside a span), a tombstone and a scattered overwrite.
	seed(smallBase, "p1-5 d3 p20-40 p2 b1:1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,1,99 r1 b1:0,2,0,99"),
	// alex: MultiGets of keys 1..16 and of every third key from 2 on (41,
	// 44 and 47 absent), each key three times round by round, so in key
	// order runs of equal keys straddle MultiGet's groups of ⌈√n⌉ keys;
	// over stragglers, a tombstone, overwrites and an expand in flight,
	// then after the drain.
	seed(smallBase+6, "p1-40 p5 d7 p12 b3:1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,99 "+
		"b3:2,5,8,11,14,17,20,23,26,29,32,35,38,41,44,47,99 D b3:1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,99"),
	// rs-delta: key 0 and the largest key around a rebuilt base, so the
	// radix table spans the whole key space; a tombstone and an overwrite
	// of base keys, a MultiGet over both buffers, then the drain folds them.
	seed(smallBase+7, "p0 p255 p1-12 d0 p5 b1:0,0,99 s0/0/4 D g255 r0 s1/0/4"),
}

// seed encodes ops for entry e in decodeOps's format. ops are
// space-separated: pK puts K, dK deletes it, gK gets it (pA-B puts A to
// B); sK/N/B scans from K, N entries at most (0: all), B a time; rN
// restarts (0 recovers, 1 compacts), D drains, lA-B bulk-loads A on, 4
// keys at a time past B at most (first op only), and bR:K,... gets the
// keys as a batch, each R times. A key is a byte; 255 stands for 2^64-1.
func seed(e byte, ops string) []byte {
	b := []byte{e}
	op := func(k indextest.Kind, n int) { b = append(b, byte(k)|byte(n)<<4) }
	key := func(k int) { b = append(b, byte(k/255), byte(k%255)) } // shape 0: k; shape 1: 2^64-1 - 0
	for _, o := range strings.Fields(ops) {
		var n []int
		for _, f := range strings.FieldsFunc(o[1:], func(r rune) bool { return r < '0' || r > '9' }) {
			v, _ := strconv.Atoi(f)
			n = append(n, v)
		}
		switch o[0] {
		case 'p', 'd', 'g':
			for k := n[0]; k <= n[len(n)-1]; k++ {
				op(map[byte]indextest.Kind{'p': indextest.InsertReplace, 'd': indextest.Delete, 'g': indextest.Get}[o[0]], 0)
				key(k)
			}
		case 's':
			op(indextest.Scan, n[1])
			key(n[0])
			b = append(b, byte(n[2]))
		case 'r':
			op(indextest.Restart, n[0])
		case 'D':
			op(indextest.Drain, 0)
		case 'l':
			c := (n[1]-n[0])/4 + 1
			op(indextest.BulkLoad, c)
			key(n[0])
			for range 4*c - 1 {
				b = append(b, 4, 0) // the fifth key shape: the previous key + 1
			}
		case 'b':
			op(indextest.GetBatch, n[0]-1)
			b = append(b, byte(len(n)-2))
			for _, k := range n[1:] {
				key(k)
			}
		}
	}
	return b
}

// opDecoder turns fuzzer bytes into ops; it reads zeros once the input is
// spent.
type opDecoder struct {
	data []byte
	prev uint64
}

func (d *opDecoder) byte() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

// key decodes a shape byte and an offset byte (a whole key for the last
// shape).
func (d *opDecoder) key() uint64 {
	b, x := d.byte(), uint64(d.byte())
	switch b % 6 {
	case 0:
		d.prev = x
	case 1:
		d.prev = ^uint64(0) - x
	case 2:
		d.prev = 1<<53 + x - 128
	case 3:
		d.prev = uint64(b>>3&3)<<62 | 1<<40 | x
	case 4:
		d.prev += 1 + x%4
	default:
		for range 7 {
			x = x<<8 | uint64(d.byte())
		}
		d.prev = x
	}
	return d.prev
}

// decodeOps decodes ops until the input is spent: a byte whose low four
// bits pick the kind and high four bits a count, then the kind's
// arguments. An op's position is the value it writes. Only the first op
// may bulk-load: the baselines build only into an empty index. An
// InsertReplace writes a run of count+1 keys, from the decoded key on,
// each one past the last: a run written below or above a load is what
// splits a group or retrains a segment, and key by key it would cost the
// mutator many coordinated bytes.
func decodeOps(data []byte) []indextest.Op {
	d := opDecoder{data: data}
	var ops []indextest.Op
	for i := uint64(1); len(d.data) > 0; i++ {
		b := d.byte()
		o := indextest.Op{Kind: indextest.Kind(b&15) % indextest.NKinds, N: int(b >> 4), Val: i}
		if o.Kind == indextest.BulkLoad && i > 1 {
			o.Kind = indextest.InsertReplace
		}
		switch o.Kind {
		case indextest.GetBatch:
			// 1 to 17 keys, each asked 1 to 3 times round by round: in key
			// order runs of equal keys straddle MultiGet's groups of ⌈√n⌉.
			keys := make([]uint64, 1+int(d.byte())%17)
			for j := range keys {
				keys[j] = d.key()
			}
			for range o.N%3 + 1 {
				o.Keys = append(o.Keys, keys...)
			}
		case indextest.BulkLoad:
			for range o.N * 4 {
				o.Keys = append(o.Keys, d.key())
			}
			slices.Sort(o.Keys)
			o.Keys = slices.Compact(o.Keys)
			for _, k := range o.Keys {
				o.Vals = append(o.Vals, k^i)
			}
		case indextest.Scan:
			o.Key, o.Buf = d.key(), int(d.byte()%5)
		case indextest.Resume:
			o.Key, o.N = d.key(), o.N+1
		case indextest.InsertReplace:
			k := d.key()
			for range o.N {
				o.Key = k
				ops = append(ops, o)
				k++
			}
			o.Key, d.prev = k, k
		case indextest.Sizes, indextest.Drain, indextest.Restart:
		default:
			o.Key = d.key()
		}
		ops = append(ops, o)
	}
	return ops
}
