package viper

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"learnedpieces/internal/btree"
	"learnedpieces/internal/core"
	"learnedpieces/internal/epoch"
	"learnedpieces/internal/index"
	"learnedpieces/internal/learned/alex"
	"learnedpieces/internal/learned/finedex"
	"learnedpieces/internal/learned/pgm"
	"learnedpieces/internal/learned/rebuild"
	"learnedpieces/internal/learned/rmi"
	"learnedpieces/internal/learned/xindex"
	"learnedpieces/internal/pmem"
)

// The fuzz stream is a sequence of three-byte operations: an opcode and
// two arguments. Keys come from a table of 256 spread over the key space,
// ends included; values reach a few KiB, so pages roll over within a few
// hundred operations and a 16-page region fills up. A stream is cut after
// fzMaxOps operations: the mutator grows inputs to a megabyte.
const fzMaxOps = 1000

const (
	fzPut = iota
	fzDelete
	fzGet
	fzRange
	fzBulkPut
	fzCompact
	fzRecover
	fzDrain
	fzMultiGet
	fzWideMultiGet
	fzOps
)

// fzIndex is the index kind the stream runs on (kind%7): a btree store;
// pgm and rmi-delta with tiny buffers, whose flushes (pgm's cascades
// included) and rebuilds run on the background pool of a RetrainAsync
// store; xindex and finedex with tiny buffers and bins, compacting and
// retraining inline; the FITing-tree buffer preset with an 8-key leaf
// buffer, whose leaf rebuilds run on the pool and are installed, with
// the writes logged meanwhile replayed, at the next write or drain; and
// alex, the benchmark's primary index, with 16-key data nodes, whose
// expands run on the pool the same way while full nodes expand and split
// on the spot.
func fzIndex(kind byte) (fresh func() index.Index, opts []Option) {
	async := []Option{WithRetrainMode(RetrainAsync)}
	switch kind % 7 {
	case 1:
		return func() index.Index { return pgm.New(pgm.Config{BaseSize: 8}) }, async
	case 2:
		return func() index.Index {
			return rebuild.New("rmi-delta", rebuild.Config{Threshold: 8},
				func() rebuild.Inner { return rmi.New(rmi.DefaultConfig()) })
		}, async
	case 3:
		return func() index.Index { return xindex.New(xindex.Config{BufferThreshold: 8}) }, nil
	case 4:
		return func() index.Index { return finedex.New(finedex.Config{BinCap: 8}) }, nil
	case 5:
		return func() index.Index {
			return core.Compose(core.OptPLA{Eps: 32}, core.NewBTreeTop(), core.BufferInsert{Size: 8}, core.RetrainNode{})
		}, async
	case 6:
		return func() index.Index { return alex.New(alex.Config{MaxLeafKeys: 16}) }, async
	}
	return func() index.Index { return btree.New() }, nil
}

func fzKey(b byte) uint64 {
	if b == 255 {
		return ^uint64(0)
	}
	return uint64(b)<<56 | uint64(b)
}

// fzBatch is a MultiGet batch: 1 + b%15 table keys from a on, b>>4+1
// apart, then a repeat of the first and a key outside the table (the
// first with bit 40 flipped: bits 8-55 of a table key are all clear or
// all set).
func fzBatch(a, b byte) []uint64 {
	n, stride := 1+int(b)%15, 1+int(b>>4)
	keys := make([]uint64, 0, n+2)
	for i := 0; i < n; i++ {
		keys = append(keys, fzKey(byte(int(a)+i*stride)))
	}
	return append(keys, keys[0], fzKey(a)^1<<40)
}

// fzWideBatch is a wide MultiGet batch of up to 51 keys: 1 + b%16 table
// keys from a on, b>>4+1 apart, and a key outside the table, each asked
// three times, round by round. In key order every run of equal keys
// covers positions 3j..3j+2, so runs straddle the boundaries of
// MultiGet's groups of ⌈√n⌉ keys whenever that size is not a multiple of
// three: at 12 to 24 keys and at 39 to 51.
func fzWideBatch(a, b byte) []uint64 {
	n, stride := 1+int(b)%16, 1+int(b>>4)
	keys := make([]uint64, 0, 3*(n+1))
	for range 3 {
		for i := 0; i < n; i++ {
			keys = append(keys, fzKey(byte(int(a)+i*stride)))
		}
		keys = append(keys, fzKey(a)^1<<40)
	}
	return keys
}

// fzValue is a payload that differs between any two operations of a stream.
func fzValue(op int, n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(op + i)
	}
	v[0] = byte(op >> 8)
	return v
}

// fzPuts is a stream putting keys lo..hi with small values.
func fzPuts(lo, hi byte) []byte {
	var ops []byte
	for k := lo; k <= hi; k++ {
		ops = append(ops, fzPut, k, 1)
	}
	return ops
}

// FuzzStoreOps drives a store with Put, Delete, Get, MultiGet, Range,
// BulkPut, Compact, DropIndex+Recover and DrainRetrains against a map
// oracle,
// checking Len after every operation and the whole key table, forwards
// through Range and again after a recovery, at the end. kind selects the
// index (fzIndex); every index the stream installs is a fresh one of that
// kind. A BulkPut replaces the index (the bulk-load contract is an empty
// index), so the operation is the sequence that is meaningful on a
// non-empty store: drop the index, load, recover — after which the log's
// earlier keys must be back. A MultiGet batch (fzBatch) holds up to 16
// table keys, one of them repeated, and one key outside the table; a wide
// one (fzWideBatch) asks up to 16 table keys and one outside three times
// each, so runs of equal keys straddle MultiGet's group boundaries.
// Values longer than the store's declared size make it read stragglers
// inside its read round.
func FuzzStoreOps(f *testing.F) {
	f.Add(byte(0), []byte{fzPut, 7, 3, fzDelete, 7, 0, fzBulkPut, 5, 4, fzGet, 7, 0, fzRecover, 0, 0}) // tombstone, then BulkPut of the same key
	f.Add(byte(0), []byte{fzPut, 1, 200, fzPut, 2, 200, fzPut, 1, 9, fzCompact, 0, 0, fzPut, 2, 1, fzRecover, 0, 0})
	f.Add(byte(0), []byte{fzPut, 0, 1, fzDelete, 0, 0, fzPut, 0, 2, fzBulkPut, 0, 0, fzDelete, 0, 0, fzRange, 0, 0, fzPut, 255, 5, fzRecover, 0, 0}) // key 0 and the largest key
	f.Add(byte(0), bytes.Repeat([]byte{fzBulkPut, 0, 255, fzPut, 9, 255, fzCompact, 0, 0}, 12))                                                      // enough pages to fill the region
	// pgm: the second flush cascades into run 1 and may still be in flight
	// at the Compact; the fresh index cascades again into run 2.
	f.Add(byte(1), slices.Concat(fzPuts(1, 16), []byte{fzCompact, 0, 0}, fzPuts(17, 32),
		[]byte{fzRange, 0, 0, fzDrain, 0, 0, fzGet, 20, 0, fzRecover, 0, 0}))
	// pgm: the Delete's tombstone completes the buffer, so it is frozen
	// (and being flushed) when Recover drops the index.
	f.Add(byte(1), slices.Concat(fzPuts(1, 8), []byte{fzDrain, 0, 0}, fzPuts(9, 15),
		[]byte{fzDelete, 3, 0, fzGet, 3, 0, fzRecover, 0, 0, fzGet, 3, 0, fzRange, 0, 0}))
	// rmi-delta: a tombstone and an overwrite of keys the first rebuild
	// holds, read through Range over the buffers, then folded into the
	// base by a second rebuild that the drain finishes.
	f.Add(byte(2), slices.Concat(fzPuts(1, 8), []byte{fzDelete, 2, 0, fzPut, 5, 9, fzRange, 0, 0},
		fzPuts(20, 25), []byte{fzRange, 1, 20, fzDrain, 0, 0, fzGet, 5, 0, fzGet, 2, 0, fzRecover, 0, 0}))
	// xindex: compactions over a bulk-loaded group, deletes of buffered and
	// compacted keys, key 2^64-1, a scan across them.
	f.Add(byte(3), slices.Concat([]byte{fzBulkPut, 0, 40}, fzPuts(100, 130),
		[]byte{fzDelete, 10, 0, fzDelete, 120, 0, fzPut, 255, 3, fzRange, 5, 0, fzCompact, 0, 0, fzRange, 0, 0}))
	// finedex: bins split into levels and the segment retrains, with
	// tombstones over base keys carried through the retrain.
	f.Add(byte(4), slices.Concat([]byte{fzBulkPut, 0, 60}, fzPuts(61, 120),
		[]byte{fzDelete, 3, 0, fzDelete, 70, 0, fzGet, 3, 0, fzRange, 0, 0}, fzPuts(121, 200), []byte{fzRange, 60, 30}))

	// fiting-buf: the eighth Put fills the leaf buffer and hands its
	// rebuild to the pool; the Deletes that follow (of a buffered key, then
	// of keys the rebuild folds into the base) hit the leaf while it may
	// still be retraining, so they are logged and replayed at the install.
	f.Add(byte(5), slices.Concat(fzPuts(1, 8), []byte{fzDelete, 3, 0, fzGet, 3, 0}, fzPuts(9, 16),
		[]byte{fzDelete, 1, 0, fzDelete, 12, 0, fzPut, 3, 7, fzRange, 0, 0, fzDrain, 0, 0, fzGet, 12, 0, fzRecover, 0, 0}))
	// alex: the fourth Put fills the root data node and submits its
	// expand to the pool. The overwrites and Deletes that follow leave the
	// node's gaps alone, so they hit it while the expand is in flight (the
	// worker takes microseconds to wake) and are logged; the Drain installs
	// the expand and replays them. The later Puts expand and split the
	// node.
	f.Add(byte(6), slices.Concat(fzPuts(10, 13), []byte{fzPut, 11, 9, fzDelete, 12, 0, fzPut, 13, 2, fzDelete, 10, 0, fzGet, 12, 0, fzDrain, 0, 0},
		fzPuts(20, 40), []byte{fzPut, 30, 5, fzDelete, 25, 0, fzPut, 33, 7, fzDrain, 0, 0, fzRange, 0, 0, fzRecover, 0, 0}))
	// MultiGet over log neighbours whose values run past the declared size
	// (stragglers inside a span), a tombstone and a scattered overwrite.
	f.Add(byte(0), slices.Concat([]byte{fzPut, 1, 1, fzPut, 2, 40, fzPut, 3, 1, fzPut, 4, 90, fzPut, 5, 1, fzDelete, 3, 0},
		fzPuts(20, 40), []byte{fzPut, 2, 200, fzMultiGet, 1, 14, fzCompact, 0, 0, fzMultiGet, 0, 31}))
	// alex: wide MultiGets of keys 1..16 and of every third key from 2 on
	// (41, 44 and 47 absent), each key three times, over a straggler, a
	// tombstone, overwrites and an expand in flight, then after the drain.
	f.Add(byte(6), slices.Concat(fzPuts(1, 40), []byte{fzPut, 5, 60, fzDelete, 7, 0, fzPut, 12, 3,
		fzWideMultiGet, 1, 15, fzWideMultiGet, 2, 0x2f, fzDrain, 0, 0, fzWideMultiGet, 1, 15}))

	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		data = data[:min(len(data), 3*fzMaxOps)]
		fresh, opts := fzIndex(kind)
		s := Open(pmem.NewRegion(16*PageSize, pmem.None()), fresh(), opts...)
		defer func() { _ = s.Close() }()
		oracle := make(map[uint64][]byte)
		recoverNow := func() {
			s.DropIndex(fresh())
			if err := s.Recover(fresh()); err != nil {
				t.Fatalf("recover: %v", err)
			}
		}
		sortedFrom := func(start uint64) []uint64 {
			var keys []uint64
			for k := range oracle {
				if k >= start {
					keys = append(keys, k)
				}
			}
			slices.Sort(keys)
			return keys
		}
		checkRange := func(op int, start uint64, n int) {
			want := sortedFrom(start)
			if n > 0 && len(want) > n {
				want = want[:n]
			}
			i := 0
			err := s.Range(start, n, func(k uint64, v []byte) bool {
				if i >= len(want) || k != want[i] || !bytes.Equal(v, oracle[k]) {
					t.Fatalf("op %d: Range(%d, %d) entry %d is key %d, want one of %v with its value", op, start, n, i, k, want)
				}
				i++
				return true
			})
			if err != nil || i != len(want) {
				t.Fatalf("op %d: Range(%d, %d) delivered %d entries, %v; want %d", op, start, n, i, err, len(want))
			}
		}

	stream:
		for op := 0; len(data) >= 3; op, data = op+1, data[3:] {
			a, b := data[1], data[2]
			key := fzKey(a)
			var err error
			switch data[0] % fzOps {
			case fzPut:
				v := fzValue(op, 1+int(b)*24)
				if err = s.Put(key, v); err == nil {
					oracle[key] = v
				}
			case fzDelete:
				var ok bool
				_, want := oracle[key]
				if ok, err = s.Delete(key); err == nil && ok != want {
					t.Fatalf("op %d: Delete(%d) = %v, want %v", op, key, ok, want)
				}
				if err == nil {
					delete(oracle, key)
				}
			case fzGet:
				got, ok := s.Get(key)
				if want, has := oracle[key]; ok != has || !bytes.Equal(got, want) {
					t.Fatalf("op %d: Get(%d) = %d bytes, %v; want %d bytes, %v", op, key, len(got), ok, len(want), has)
				}
			case fzRange:
				checkRange(op, key, int(b)%40)
			case fzBulkPut:
				var keys []uint64
				for k := int(a); k <= min(int(a)+int(b), 255); k++ {
					keys = append(keys, fzKey(byte(k)))
				}
				v := fzValue(op, 1+int(b)*16)
				s.DropIndex(fresh())
				if err = s.BulkPut(keys, v); err == nil {
					if s.Len() != len(keys) {
						t.Fatalf("op %d: Len = %d after a BulkPut of %d keys", op, s.Len(), len(keys))
					}
					for _, k := range keys {
						oracle[k] = v
					}
				}
				recoverNow()
			case fzCompact:
				if _, err = s.Compact(fresh()); err == nil {
					// Let the retired pages be freed, so later rollovers
					// reuse them (zeroed, and out of offset order).
					for i := 0; i < 3; i++ {
						epoch.Advance()
					}
				}
			case fzRecover:
				recoverNow()
			case fzDrain:
				s.DrainRetrains()
			case fzMultiGet, fzWideMultiGet:
				batch := fzBatch(a, b)
				if data[0]%fzOps == fzWideMultiGet {
					batch = fzWideBatch(a, b)
				}
				got := s.MultiGet(batch)
				for i, k := range batch {
					if want, has := oracle[k]; (got[i] != nil) != has || !bytes.Equal(got[i], want) {
						t.Fatalf("op %d: MultiGet position %d (key %d) = %d bytes, want %d bytes, %v", op, i, k, len(got[i]), len(want), has)
					}
				}
			}
			if errors.Is(err, ErrFull) {
				break stream // a refused operation changed nothing: the final check still holds
			}
			if err != nil {
				t.Fatalf("op %d (%d): %v", op, data[0]%fzOps, err)
			}
			if s.Len() != len(oracle) {
				t.Fatalf("op %d (%d): Len = %d, oracle holds %d", op, data[0]%fzOps, s.Len(), len(oracle))
			}
		}

		for pass := 0; pass < 2; pass++ {
			if s.Len() != len(oracle) {
				t.Fatalf("final pass %d: Len = %d, oracle holds %d", pass, s.Len(), len(oracle))
			}
			for b := 0; b < 256; b++ {
				got, ok := s.Get(fzKey(byte(b)))
				if want, has := oracle[fzKey(byte(b))]; ok != has || !bytes.Equal(got, want) {
					t.Fatalf("final pass %d: Get(%d) = %d bytes, %v; want %d bytes, %v", pass, fzKey(byte(b)), len(got), ok, len(want), has)
				}
			}
			checkRange(-1, 0, 0)
			recoverNow()
		}
	})
}
