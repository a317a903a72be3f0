package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"learnedpieces/internal/epoch"
	"learnedpieces/internal/index"
	"learnedpieces/internal/indextest"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/viper"
)

// TestRegistryStores runs the conformance streams over a store on each
// registry index, every stream ending with a recovery and a compaction.
// The read-only pair must refuse every write, also after a recovery.
func TestRegistryStores(t *testing.T) {
	for _, e := range Registry() {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			indextest.Run(t, "store", storeFactory(t, e.New))
		})
	}
}

// storeFactory builds stores over fresh indexes, opened with opts, as
// indextest targets; every store is closed when t ends.
func storeFactory(t testing.TB, fresh func() index.Index, opts ...viper.Option) indextest.Factory {
	return func() index.Index {
		x := &storeIndex{fresh: fresh, open: func(region *pmem.Region) *viper.Store {
			return viper.Open(region, fresh(), opts...)
		}}
		x.s = x.open(pmem.NewRegion(4<<20, pmem.None()))
		t.Cleanup(func() { _ = x.s.Close() })
		return x
	}
}

// storeIndex presents a viper.Store as an index. A written value v of key
// k is stored as payload(v^k), and every read decodes its payload back,
// so a record read short, long or from the wrong offset is a wrong value.
type storeIndex struct {
	s     *viper.Store
	fresh func() index.Index
	open  func(*pmem.Region) *viper.Store // a store over the region, attached to its log
}

// payload is the record value for w: w in 8 bytes, then w%509 bytes that
// w determines, so lengths run from 8 bytes to past the store's declared
// value size, and a load whose values are its keys writes one payload.
func payload(w uint64) []byte {
	p := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+w%509), w)
	for i := range w % 509 {
		p = append(p, byte(w>>(i%8*8))^byte(i))
	}
	return p
}

// decode is the value a payload read for key k holds. A payload other
// than the one its first 8 bytes name decodes to the complement of the
// value they claim.
func decode(k uint64, p []byte) uint64 {
	var w uint64
	if len(p) >= 8 {
		w = binary.LittleEndian.Uint64(p)
	}
	if !bytes.Equal(p, payload(w)) {
		return ^(w ^ k)
	}
	return w ^ k
}

func (x *storeIndex) Name() string   { return "store/" + x.s.Index().Name() }
func (x *storeIndex) Len() int       { return x.s.Len() }
func (x *storeIndex) DrainRetrains() { x.s.DrainRetrains() }

// Sizes are the store's footprints: the index's structure and keys, then
// the region's allocated bytes as the values.
func (x *storeIndex) Sizes() index.Sizes {
	st, wk, wkv := x.s.Sizes()
	return index.Sizes{Structure: st, Keys: wk - st, Values: wkv - wk}
}

// Caps are the store's: its index's, and MultiGet batches over any index.
func (x *storeIndex) Caps() index.Caps {
	c := x.s.Caps()
	c.BatchGet = true
	return c
}

func (x *storeIndex) Get(k uint64) (uint64, bool) {
	p, ok := x.s.Get(k)
	if !ok {
		return 0, false
	}
	return decode(k, p), true
}

func (x *storeIndex) GetBatch(keys, vals []uint64, found []bool) {
	for i, p := range x.s.MultiGet(keys) {
		vals[i], found[i] = 0, p != nil
		if p != nil {
			vals[i] = decode(keys[i], p)
		}
	}
}

func (x *storeIndex) Insert(k, v uint64) error { return x.s.Put(k, payload(v^k)) }

// InsertReplace is a Put; the key existed if Len did not grow.
func (x *storeIndex) InsertReplace(k, v uint64) (bool, error) {
	n := x.s.Len()
	err := x.s.Put(k, payload(v^k))
	return err == nil && x.s.Len() == n, err
}

// Delete reports false on an error, which the oracle tells from a miss.
func (x *storeIndex) Delete(k uint64) bool {
	ok, _ := x.s.Delete(k)
	return ok
}

// BulkLoad is a BulkPut into a fresh store. BulkPut writes one payload
// for every key, so every value ^ key must agree.
func (x *storeIndex) BulkLoad(keys, vals []uint64) error {
	var w uint64
	for i, k := range keys {
		if i == 0 {
			w = k ^ vals[0]
		} else if k^vals[i] != w {
			return fmt.Errorf("key %d: value ^ key differs from the first key's, and a store loads one payload", k)
		}
	}
	_ = x.s.Close()
	x.s = x.open(pmem.NewRegion(4<<20, pmem.None()))
	return x.s.BulkPut(keys, payload(w))
}

// Restart drops the store and opens a new one over the same region, which
// finds the log from the bytes alone (even n), or compacts the log (odd n)
// and advances the epoch until the retired pages are free, so later page
// rollovers reuse them.
func (x *storeIndex) Restart(n int) error {
	if n%2 == 0 {
		if err := x.s.Close(); err != nil {
			return err
		}
		x.s = x.open(x.s.Region())
		return nil
	}
	_, err := x.s.Compact(x.fresh())
	for range 3 {
		epoch.Advance()
	}
	return err
}

// Range opens a cursor whose every Next is one store Range, limited to
// the batch, from the key after the last one it delivered. A Range error
// ends the walk, which the oracle tells from the end of the keys.
func (x *storeIndex) Range(start uint64) index.Cursor { return &storeCursor{s: x.s, from: start} }

type storeCursor struct {
	s    *viper.Store
	from uint64
	done bool
}

func (c *storeCursor) Next(keys, vals []uint64) int {
	if c.done || len(keys) == 0 {
		return 0
	}
	n := 0
	_ = c.s.Range(c.from, len(keys), func(k uint64, p []byte) bool {
		keys[n], vals[n] = k, decode(k, p)
		n++
		return true
	})
	if c.done = n < len(keys) || keys[n-1] == ^uint64(0); !c.done {
		c.from = keys[n-1] + 1
	}
	return n
}

func (c *storeCursor) Close() {}
