package core

import (
	"slices"
	"testing"

	"learnedpieces/internal/indextest"
)

// FuzzIndexOps drives a registry index through the indextest interpreter,
// which checks every answer against its sorted-map oracle. The input's
// first byte picks the entry; the rest decodes to ops whose keys lean
// toward where indexes break: 0 and 2^64-1, dense runs, 2^53's neighbours
// (which share a float64), and clusters behind a shared prefix.
func FuzzIndexOps(f *testing.F) {
	reg := Registry()
	var seed []byte
	for k := byte(0); k < byte(indextest.NKinds); k++ {
		seed = append(seed, k|0x30, k, 7*k+1, k+3, 0xFF-k)
	}
	for i := range reg {
		f.Add(append([]byte{byte(i)}, seed...))
		f.Add(append([]byte{byte(i), 0x57}, seed...)) // a bulk load of up to 20 keys first
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		e := reg[int(data[0])%len(reg)]
		indextest.Replay(t, e.New, decodeOps(data[1:]))
	})
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
// bits pick the kind and high four bits a count, then the kind's keys. An
// op's position is the value it writes. Only the first op may bulk-load:
// the baselines build only into an empty index.
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
			for range o.N%8 + 1 {
				o.Keys = append(o.Keys, d.key())
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
		default:
			o.Key = d.key()
		}
		ops = append(ops, o)
	}
	return ops
}
