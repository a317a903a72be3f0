// Package cceh implements extendible hashing in the style of CCEH
// (cacheline-conscious extendible hashing): a directory of fixed-size
// segments, each probed linearly from a home bucket, with segment splits
// and directory doubling. It plays the role the paper assigns CCEH: the
// unsorted upper bound (the black horizontal line in Figs 10/12/13/15).
// Scans are not supported.
package cceh

import (
	"sync"

	"learnedpieces/internal/index"
)

const (
	bucketBits   = 8 // 256 home buckets per segment
	numBuckets   = 1 << bucketBits
	bucketSlots  = 4 // one cache line of entries
	segmentSlots = numBuckets * bucketSlots
	// insertProbe bounds how far Insert will probe before splitting the
	// segment; splitProbe is the (much larger) bound used while
	// redistributing entries into half-empty segments.
	insertProbe = 32
	splitProbe  = segmentSlots
)

type slotState uint8

const (
	slotEmpty slotState = iota
	slotUsed
	slotTomb // tombstone: keeps probe chains intact after Delete
)

type segment struct {
	localDepth uint
	count      int
	keys       [segmentSlots]uint64
	vals       [segmentSlots]uint64
	state      [segmentSlots]slotState
}

// Map is the extendible hash table. Reads may run concurrently with each
// other; a RWMutex protects mutation and directory swaps.
type Map struct {
	mu          sync.RWMutex
	globalDepth uint
	dir         []*segment
	length      int
}

// New returns an empty hash map with a two-segment directory.
func New() *Map {
	m := &Map{globalDepth: 1, dir: make([]*segment, 2)}
	m.dir[0] = &segment{localDepth: 1}
	m.dir[1] = &segment{localDepth: 1}
	return m
}

// Name implements index.Index.
func (m *Map) Name() string { return "cceh" }

// ConcurrentWrites reports that concurrent Inserts, Deletes and Gets are
// safe: every one of them takes the map's RWMutex.
func (m *Map) ConcurrentWrites() bool { return true }

// Len returns the number of stored entries.
func (m *Map) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.length
}

func hash(key uint64) uint64 {
	h := key * 0x9E3779B97F4A7C15
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

func (m *Map) segmentFor(h uint64) *segment {
	return m.dir[h>>(64-m.globalDepth)]
}

func homeSlot(h uint64) int {
	return int(h&(numBuckets-1)) * bucketSlots
}

// Get returns the value stored under key. Probing stops at the first
// empty (never-used) slot, which linear probing with tombstones keeps
// as a correct terminator.
func (m *Map) Get(key uint64) (uint64, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.getLocked(key)
}

// getLocked probes for key; the caller holds m.mu (read or write).
func (m *Map) getLocked(key uint64) (uint64, bool) {
	h := hash(key)
	s := m.segmentFor(h)
	start := homeSlot(h)
	for i := 0; i < segmentSlots; i++ {
		j := (start + i) & (segmentSlots - 1)
		switch s.state[j] {
		case slotEmpty:
			return 0, false
		case slotUsed:
			if s.keys[j] == key {
				return s.vals[j], true
			}
		}
	}
	return 0, false
}

// Insert stores value under key, replacing any existing value. Segments
// whose probe chains grow past insertProbe are split (doubling the
// directory when the local depth reaches the global depth).
func (m *Map) Insert(key, value uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		h := hash(key)
		s := m.segmentFor(h)
		if insertInto(s, h, key, value, insertProbe, &m.length) {
			return nil
		}
		m.split(h)
	}
}

// InsertReplace implements index.Upserter: the existence probe and the
// insert run under the same map lock.
func (m *Map) InsertReplace(key, value uint64) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, existed := m.getLocked(key)
	for {
		h := hash(key)
		s := m.segmentFor(h)
		if insertInto(s, h, key, value, insertProbe, &m.length) {
			return existed, nil
		}
		m.split(h)
	}
}

// insertInto scans the probe chain from the home bucket up to the first
// empty slot, updating the key in place if present. A new key is placed
// in the first free slot (tombstone or empty) no further than maxProbe
// from home — placing at or before the first empty slot preserves the
// invariant that every key is reachable before the chain's terminator.
// Returns false when no slot within maxProbe is free.
func insertInto(s *segment, h uint64, key, value uint64, maxProbe int, length *int) bool {
	start := homeSlot(h)
	free := -1
	for i := 0; i < segmentSlots; i++ {
		j := (start + i) & (segmentSlots - 1)
		st := s.state[j]
		if st == slotUsed {
			if s.keys[j] == key {
				s.vals[j] = value
				return true
			}
			continue
		}
		if free < 0 && i < maxProbe {
			free = j
		}
		if st == slotEmpty {
			break
		}
	}
	if free < 0 {
		return false
	}
	s.keys[free] = key
	s.vals[free] = value
	s.state[free] = slotUsed
	s.count++
	if length != nil {
		*length++
	}
	return true
}

// split replaces the segment containing hash h with two segments of
// local depth +1, redistributing entries by the next hash bit.
func (m *Map) split(h uint64) {
	old := m.segmentFor(h)
	if old.localDepth == m.globalDepth {
		nd := make([]*segment, len(m.dir)*2)
		for i, s := range m.dir {
			nd[2*i] = s
			nd[2*i+1] = s
		}
		m.dir = nd
		m.globalDepth++
	}
	depth := old.localDepth + 1
	s0 := &segment{localDepth: depth}
	s1 := &segment{localDepth: depth}
	bit := uint64(1) << (64 - depth)
	for j := 0; j < segmentSlots; j++ {
		if old.state[j] != slotUsed {
			continue
		}
		hh := hash(old.keys[j])
		dst := s0
		if hh&bit != 0 {
			dst = s1
		}
		if !insertInto(dst, hh, old.keys[j], old.vals[j], splitProbe, nil) {
			panic("cceh: segment overflow during split")
		}
	}
	// Rewire every directory slot that pointed at old: the aligned block of
	// 2*stride entries splits into the s0 half and the s1 half.
	stride := 1 << (m.globalDepth - depth)
	first := int(h>>(64-m.globalDepth)) &^ (stride*2 - 1)
	for i := 0; i < stride; i++ {
		m.dir[first+i] = s0
		m.dir[first+stride+i] = s1
	}
}

// Delete removes key (leaving a tombstone) and reports whether it was
// present.
func (m *Map) Delete(key uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := hash(key)
	s := m.segmentFor(h)
	start := homeSlot(h)
	for i := 0; i < segmentSlots; i++ {
		j := (start + i) & (segmentSlots - 1)
		switch s.state[j] {
		case slotEmpty:
			return false
		case slotUsed:
			if s.keys[j] == key {
				s.state[j] = slotTomb
				s.count--
				m.length--
				return true
			}
		}
	}
	return false
}

// BulkLoad inserts all keys; hashing has no faster build path.
func (m *Map) BulkLoad(keys, values []uint64) error {
	for i, k := range keys {
		var v uint64
		if values != nil {
			v = values[i]
		}
		if err := m.Insert(k, v); err != nil {
			return err
		}
	}
	return nil
}

// Sizes reports the footprint: directory plus all distinct segments;
// slack segment space counts as structure, live entries as key/value.
func (m *Map) Sizes() index.Sizes {
	m.mu.RLock()
	defer m.mu.RUnlock()
	seen := make(map[*segment]bool)
	for _, s := range m.dir {
		seen[s] = true
	}
	segBytes := int64(len(seen)) * int64(segmentSlots) * 17 // 2x8B + state byte
	return index.Sizes{
		Structure: int64(len(m.dir))*8 + segBytes - int64(m.length)*16,
		Keys:      int64(m.length) * 8,
		Values:    int64(m.length) * 8,
	}
}
