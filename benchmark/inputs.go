package main

import (
	"encoding/binary"
	"math/rand"
	"sort"
)

// The program under test receives only what this file generates: the
// dataset's keys and pre-generated op streams, both functions of -seed
// alone. The generator is also the oracle — it tracks which keys are
// present and at which version, and writes the expected answer into
// every op — so the measured loop checks answers without keeping state.

type opKind uint8

const (
	kGet opKind = iota
	kUpdate
	kInsert
	kDelete
	kMultiGet
	kRange
)

// class groups op kinds the way metrics report them.
type class uint8

const (
	cGet class = iota
	cPut
	cDelete
	cMultiGet
	cRange
	numClasses
)

var classNames = [numClasses]string{"get", "put", "delete", "multiget", "range"}

func (k opKind) class() class {
	switch k {
	case kGet:
		return cGet
	case kUpdate, kInsert:
		return cPut
	case kDelete:
		return cDelete
	case kMultiGet:
		return cMultiGet
	default:
		return cRange
	}
}

// op is one pre-generated operation with its expected answer. It holds
// no pointers, so a ten-million-op stream costs the collector nothing.
type op struct {
	// key is the key, the Range start, or for MultiGet the offset of
	// the batch in stream.mgKeys.
	key uint64
	// want is the version a Get must read, the version a Put writes,
	// or the hash of the (key, version) sequence a MultiGet or an exact
	// Range must return.
	want uint64
	kind opKind
	// n is the requested length of a Range; on a wire stream's Get, the
	// number of later writes to the same key in the same burst (the
	// coalescer may run the Get after them).
	n uint8
}

type stream struct {
	ops    []op
	mgKeys []uint64
}

const (
	valueSize = 200
	// userBytes is what a user stored per live key: key plus value.
	userBytes = 8 + valueSize
	// recordBytes is what one record occupies in a page (13-byte header).
	recordBytes = 13 + valueSize
	// bulkMagic stamps the shared payload BulkPut writes for every
	// loaded key (version 0).
	bulkMagic uint64 = 0xB01CB01CB01CB01C
	deadBit   uint32 = 1 << 31
	golden    uint64 = 0x9E3779B97F4A7C15

	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func mixHash(h, x uint64) uint64 { return (h ^ x) * fnvPrime }

// putStamp writes the 16-byte (key, version) stamp every value carries.
func putStamp(val []byte, key, ver uint64) {
	binary.LittleEndian.PutUint64(val[0:8], key)
	binary.LittleEndian.PutUint64(val[8:16], ver)
}

// readStamp returns the version a value carries and whether its stamp
// belongs to key (the bulk payload belongs to every loaded key).
func readStamp(val []byte, key uint64) (ver uint64, ok bool) {
	if len(val) != valueSize {
		return 0, false
	}
	k := binary.LittleEndian.Uint64(val[0:8])
	ver = binary.LittleEndian.Uint64(val[8:16])
	return ver, k == key || (k == bulkMagic && ver == 0)
}

// model is the oracle for one partition of the dataset: wire workloads
// give each connection its own partition so expected versions stay
// exact under concurrency.
type model struct {
	keys []uint64 // the partition's keys, sorted
	// ver[i] is the last version written for keys[i] (0 = the bulk
	// payload), with deadBit set while the key is absent.
	ver  []uint32
	pool []uint32 // indexes of present keys: the request distribution's domain
	held []uint32 // indexes of absent keys; inserts take from the end
	rng  *rand.Rand
	zipf *rand.Zipf
	// exact is false when another partition shares the store, so a
	// Range's full result cannot be predicted from this model alone.
	exact bool
	fp    uint64 // FNV-64 over every op generated so far
}

func newModel(keys []uint64, holdEvery int, zipf, exact bool, seed int64) *model {
	m := &model{
		keys:  keys,
		ver:   make([]uint32, len(keys)),
		rng:   rand.New(rand.NewSource(seed)),
		exact: exact,
		fp:    fnvOffset,
	}
	for i := range keys {
		if i%holdEvery == holdEvery-1 {
			m.ver[i] = deadBit
			m.held = append(m.held, uint32(i))
		} else {
			m.pool = append(m.pool, uint32(i))
		}
	}
	m.rng.Shuffle(len(m.held), func(i, j int) { m.held[i], m.held[j] = m.held[j], m.held[i] })
	if zipf {
		// YCSB's zipfian constant 0.99, as internal/workload spells it.
		m.zipf = rand.NewZipf(m.rng, 1.01, 1, uint64(len(m.pool)-1))
	}
	return m
}

// loaded returns the keys the bulk load installs, sorted.
func (m *model) loaded() []uint64 {
	out := make([]uint64, 0, len(m.pool))
	for i, v := range m.ver {
		if v&deadBit == 0 {
			out = append(out, m.keys[i])
		}
	}
	return out
}

// pick draws a slot of pool from the request distribution. Zipfian
// ranks are scrambled so hot keys spread over the key space.
func (m *model) pick() int {
	if m.zipf != nil {
		return int(m.zipf.Uint64() * golden % uint64(len(m.pool)))
	}
	return m.rng.Intn(len(m.pool))
}

// generate appends up to count ops drawn from mx, advancing the model.
// It stops early when an insert finds no absent key left. burst > 0
// marks a wire stream (see op.n).
func (m *model) generate(mx mix, count, burst int) *stream {
	s := &stream{ops: make([]op, 0, count)}
	cuts := [...]float64{mx.get, mx.update, mx.insert, mx.del, mx.multiget, mx.scan}
	for i := 1; i < len(cuts); i++ {
		cuts[i] += cuts[i-1]
	}
	for len(s.ops) < count {
		r := m.rng.Float64() * cuts[len(cuts)-1]
		kind := kRange
		for k, c := range cuts {
			if r < c {
				kind = opKind(k)
				break
			}
		}
		o := op{kind: kind}
		switch kind {
		case kGet:
			i := m.pool[m.pick()]
			o.key, o.want = m.keys[i], uint64(m.ver[i])
		case kUpdate:
			i := m.pool[m.pick()]
			m.ver[i]++
			o.key, o.want = m.keys[i], uint64(m.ver[i])
		case kInsert:
			if len(m.held) == 0 {
				return m.seal(s, burst)
			}
			// Swap a random absent key to the end first, so keys a
			// Delete just returned are not re-inserted straight away.
			last := len(m.held) - 1
			j := m.rng.Intn(len(m.held))
			m.held[j], m.held[last] = m.held[last], m.held[j]
			i := m.held[last]
			m.held = m.held[:last]
			m.ver[i] = m.ver[i]&^deadBit + 1
			m.pool = append(m.pool, i)
			o.key, o.want = m.keys[i], uint64(m.ver[i])
		case kDelete:
			if len(m.pool) <= multiGetBatch {
				return m.seal(s, burst)
			}
			slot := m.pick()
			i := m.pool[slot]
			m.pool[slot] = m.pool[len(m.pool)-1]
			m.pool = m.pool[:len(m.pool)-1]
			m.ver[i] |= deadBit
			m.held = append(m.held, i)
			o.key = m.keys[i]
		case kMultiGet:
			o.key, o.want = uint64(len(s.mgKeys)), fnvOffset
			for b := 0; b < multiGetBatch; b++ {
				i := m.pool[m.pick()]
				s.mgKeys = append(s.mgKeys, m.keys[i])
				o.want = mixHash(o.want, uint64(m.ver[i]))
			}
		case kRange:
			i := int(m.pool[m.pick()])
			o.key, o.n = m.keys[i], uint8(1+m.rng.Intn(maxRangeLen))
			if m.exact {
				o.want = fnvOffset
				for left := int(o.n); left > 0 && i < len(m.keys); i++ {
					if m.ver[i]&deadBit == 0 {
						o.want = mixHash(mixHash(o.want, m.keys[i]), uint64(m.ver[i]))
						left--
					}
				}
			}
		}
		s.ops = append(s.ops, o)
	}
	return m.seal(s, burst)
}

// seal finishes a stream: on wire streams it counts, for every Get,
// the later writes to the same key inside its burst; then it folds the
// stream into the model's fingerprint.
func (m *model) seal(s *stream, burst int) *stream {
	for lo := 0; burst > 0 && lo < len(s.ops); lo += burst {
		b := s.ops[lo:min(lo+burst, len(s.ops))]
		for i := range b {
			if b[i].kind != kGet {
				continue
			}
			for _, later := range b[i+1:] {
				if later.key == b[i].key && later.kind.class() == cPut {
					b[i].n++
				}
			}
		}
	}
	for _, o := range s.ops {
		m.fp = mixHash(mixHash(mixHash(mixHash(m.fp, uint64(o.kind)), o.key), o.want), uint64(o.n))
	}
	for _, k := range s.mgKeys {
		m.fp = mixHash(m.fp, k)
	}
	return s
}

// partition splits sorted keys round-robin into n sorted partitions.
func partition(keys []uint64, n int) [][]uint64 {
	parts := make([][]uint64, n)
	for i, k := range keys {
		parts[i%n] = append(parts[i%n], k)
	}
	return parts
}

// mergeSorted merges sorted key slices into one sorted slice.
func mergeSorted(parts [][]uint64) []uint64 {
	if len(parts) == 1 {
		return parts[0]
	}
	var out []uint64
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
