// Package apex implements an APEX-style persistent learned index (Lu et
// al., VLDB'22: "APEX: A High-Performance Learned Index on Persistent
// Memory") — cited by the paper's introduction as the PMem member of the
// updatable learned index family. Where the paper's Viper setup keeps the
// whole learned index volatile in DRAM and rebuilds it by scanning every
// record after a crash (the Fig 16 weakness), APEX keeps the gapped data
// nodes *in* persistent memory: only a small directory of node metadata
// lives in DRAM, and recovery re-reads node headers instead of all data.
//
// Layout on the pmem.Region:
//
//	superblock (64B):  magic | logOff | logCap | pad
//	node log:          logCap * 8B node offsets (0 = free slot)
//	node (per alloc):  header 64B | keys cap*8 | used bitmap | values cap*8
//
// Every key/value access goes through the region and therefore pays the
// simulated NVM latency — the point of the exercise.
package apex

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"
	"sync"

	"learnedpieces/internal/index"
	"learnedpieces/internal/pla"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/search"
)

const (
	magic        = 0xA9E10C8D
	superSize    = 64
	headerSize   = 64
	nodeCapacity = 256
	// target fill after build/split.
	density = 0.7
)

// Config controls the index; the zero value uses defaults.
type Config struct {
	// LogCap bounds the total node count; <= 0 picks 1<<20.
	LogCap int
}

type nodeMeta struct {
	off int64
	pla.Model
	numKeys int
}

// Index is the persistent learned index. The region must be dedicated to
// this index.
type Index struct {
	region *pmem.Region
	logOff int64
	logCap int
	logLen int

	// DRAM directory, sorted by FirstKey (metadata cache; all key/value
	// payloads stay in PMem).
	metas []*nodeMeta
	// firsts mirrors metas[i].FirstKey in a flat array so locate probes
	// contiguous DRAM through the shared search kernel instead of
	// chasing one pointer per comparison.
	firsts []uint64
	length int
}

// Errors.
var (
	ErrLogFull    = errors.New("apex: node log full")
	ErrBadRegion  = errors.New("apex: region does not hold an apex index")
	ErrNotOrdered = errors.New("apex: bulk keys must be sorted and distinct")
)

// Create formats the region and returns an empty index.
func Create(region *pmem.Region, cfg Config) (*Index, error) {
	logCap := cfg.LogCap
	if logCap <= 0 {
		logCap = 1 << 20
	}
	if _, err := region.Alloc(superSize + 8*logCap); err != nil {
		return nil, err
	}
	ix := &Index{region: region, logOff: superSize, logCap: logCap}
	var sb [superSize]byte
	binary.LittleEndian.PutUint64(sb[0:], magic)
	binary.LittleEndian.PutUint64(sb[8:], uint64(ix.logOff))
	binary.LittleEndian.PutUint64(sb[16:], uint64(logCap))
	region.Write(0, sb[:])
	region.Flush(0, superSize)
	return ix, nil
}

// Name implements index.Index.
func (ix *Index) Name() string { return "apex" }

// Len returns the number of stored entries.
func (ix *Index) Len() int { return ix.length }

// --- PMem node accessors ---

func nodeBytes(capacity int) int {
	return headerSize + capacity*8 + (capacity+63)/64*8 + capacity*8
}

func (ix *Index) keysOff(m *nodeMeta) int64 { return m.off + headerSize }
func (ix *Index) usedOff(m *nodeMeta) int64 {
	return m.off + headerSize + nodeCapacity*8
}
func (ix *Index) valsOff(m *nodeMeta) int64 {
	return m.off + headerSize + nodeCapacity*8 + (nodeCapacity+63)/64*8
}

func (ix *Index) keyAt(m *nodeMeta, slot int) uint64 {
	return binary.LittleEndian.Uint64(ix.region.ReadNoCopy(ix.keysOff(m)+int64(slot)*8, 8))
}

func (ix *Index) valAt(m *nodeMeta, slot int) uint64 {
	return binary.LittleEndian.Uint64(ix.region.ReadNoCopy(ix.valsOff(m)+int64(slot)*8, 8))
}

func (ix *Index) usedAt(m *nodeMeta, slot int) bool {
	w := binary.LittleEndian.Uint64(ix.region.ReadNoCopy(ix.usedOff(m)+int64(slot/64)*8, 8))
	return w&(1<<(uint(slot)%64)) != 0
}

func (ix *Index) setKey(m *nodeMeta, slot int, key uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], key)
	ix.region.Write(ix.keysOff(m)+int64(slot)*8, b[:])
}

func (ix *Index) setVal(m *nodeMeta, slot int, val uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], val)
	ix.region.Write(ix.valsOff(m)+int64(slot)*8, b[:])
}

func (ix *Index) setUsed(m *nodeMeta, slot int, used bool) {
	off := ix.usedOff(m) + int64(slot/64)*8
	w := binary.LittleEndian.Uint64(ix.region.ReadNoCopy(off, 8))
	if used {
		w |= 1 << (uint(slot) % 64)
	} else {
		w &^= 1 << (uint(slot) % 64)
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], w)
	ix.region.Write(off, b[:])
}

// writeHeader persists the node metadata (live flag in byte 40).
func (ix *Index) writeHeader(m *nodeMeta, live bool) {
	var h [headerSize]byte
	binary.LittleEndian.PutUint64(h[0:], m.FirstKey)
	binary.LittleEndian.PutUint64(h[8:], math.Float64bits(m.Slope))
	binary.LittleEndian.PutUint64(h[16:], math.Float64bits(m.Intercept))
	binary.LittleEndian.PutUint32(h[24:], nodeCapacity)
	binary.LittleEndian.PutUint32(h[28:], uint32(m.numKeys))
	if live {
		h[40] = 1
	}
	ix.region.Write(m.off, h[:])
	ix.region.Flush(m.off, headerSize)
}

// persistNumKeys updates just the key count in the header.
func (ix *Index) persistNumKeys(m *nodeMeta) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(m.numKeys))
	ix.region.Write(m.off+28, b[:])
	ix.region.Flush(m.off+28, 4)
}

// allocNode writes a node built from a DRAM gapped layout into PMem and
// logs it. The GappedNode must have capacity == nodeCapacity.
func (ix *Index) allocNode(g *pla.GappedNode) (*nodeMeta, error) {
	if ix.logLen >= ix.logCap {
		return nil, ErrLogFull
	}
	off, err := ix.region.Alloc(nodeBytes(nodeCapacity))
	if err != nil {
		return nil, err
	}
	m := &nodeMeta{off: off, Model: g.Model, numKeys: g.NumKeys}
	// Bulk-write the arrays.
	buf := make([]byte, nodeCapacity*8)
	for i := 0; i < nodeCapacity; i++ {
		binary.LittleEndian.PutUint64(buf[i*8:], g.Keys[i])
	}
	ix.region.Write(ix.keysOff(m), buf)
	// The staging node's occupancy words are the node format's bitmap.
	words := make([]byte, len(g.Occ)*8)
	for i, w := range g.Occ {
		binary.LittleEndian.PutUint64(words[i*8:], w)
	}
	ix.region.Write(ix.usedOff(m), words)
	for i := 0; i < nodeCapacity; i++ {
		binary.LittleEndian.PutUint64(buf[i*8:], g.Values[i])
	}
	ix.region.Write(ix.valsOff(m), buf)
	ix.writeHeader(m, true)
	// Log the node for recovery.
	var ob [8]byte
	binary.LittleEndian.PutUint64(ob[:], uint64(off))
	ix.region.Write(ix.logOff+int64(ix.logLen)*8, ob[:])
	ix.region.Flush(ix.logOff+int64(ix.logLen)*8, 8)
	ix.logLen++
	return m, nil
}

// retire marks a replaced node dead (recovery skips it).
func (ix *Index) retire(m *nodeMeta) {
	ix.region.Write(m.off+40, []byte{0})
	ix.region.Flush(m.off+40, 1)
}

// --- index operations ---

// locate returns the directory position of the node covering key.
//
//pieces:hotpath
func (ix *Index) locate(key uint64) int { return search.Floor(ix.firsts, key, 0, len(ix.firsts)) }

// syncFirsts rebuilds the flat FirstKey mirror after any directory
// mutation (bulk load, split, recovery).
func (ix *Index) syncFirsts() {
	if cap(ix.firsts) < len(ix.metas) {
		ix.firsts = make([]uint64, len(ix.metas))
	}
	ix.firsts = ix.firsts[:len(ix.metas)]
	for i, m := range ix.metas {
		ix.firsts[i] = m.FirstKey
	}
}

// slotOf finds key's occupied slot via exponential search over the PMem
// key array (gap copies let it ignore the bitmap until the final check).
func (ix *Index) slotOf(m *nodeMeta, key uint64) (int, bool) {
	j := ix.searchGE(m, key)
	for ; j < nodeCapacity && ix.keyAt(m, j) == key; j++ {
		if ix.usedAt(m, j) {
			return j, true
		}
	}
	return -1, false
}

// searchGE returns the leftmost slot with key >= target.
func (ix *Index) searchGE(m *nodeMeta, key uint64) int {
	p := m.Predict(key, nodeCapacity)
	var lo, hi int
	if ix.keyAt(m, p) >= key {
		hi = p + 1
		lo = p
		step := 1
		for lo > 0 && ix.keyAt(m, lo-1) >= key {
			lo -= step
			if lo < 0 {
				lo = 0
			}
			step <<= 1
		}
	} else {
		lo = p + 1
		hi = p + 1
		step := 1
		for hi < nodeCapacity && ix.keyAt(m, hi) < key {
			lo = hi + 1
			hi += step
			if hi > nodeCapacity {
				hi = nodeCapacity
			}
			step <<= 1
		}
		if hi < nodeCapacity {
			hi++
		}
	}
	return lo + sort.Search(hi-lo, func(i int) bool { return ix.keyAt(m, lo+i) >= key })
}

// Get returns the value stored under key.
func (ix *Index) Get(key uint64) (uint64, bool) {
	if len(ix.metas) == 0 {
		return 0, false
	}
	m := ix.metas[ix.locate(key)]
	slot, ok := ix.slotOf(m, key)
	if !ok {
		return 0, false
	}
	return ix.valAt(m, slot), true
}

// loadNode reads a node's live layout back into DRAM (split/rebuild path).
func (ix *Index) loadNode(m *nodeMeta) ([]uint64, []uint64) {
	keys := make([]uint64, 0, m.numKeys)
	vals := make([]uint64, 0, m.numKeys)
	for i := 0; i < nodeCapacity; i++ {
		if ix.usedAt(m, i) {
			keys = append(keys, ix.keyAt(m, i))
			vals = append(vals, ix.valAt(m, i))
		}
	}
	return keys, vals
}

// BulkLoad builds nodes of ~density fill over sorted distinct keys.
func (ix *Index) BulkLoad(keys, values []uint64) error {
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return ErrNotOrdered
		}
	}
	ix.metas = ix.metas[:0]
	ix.firsts = ix.firsts[:0]
	per := nodeCapacity * 7 / 10
	for start := 0; start < len(keys); start += per {
		end := start + per
		if end > len(keys) {
			end = len(keys)
		}
		var vals []uint64
		if values != nil {
			vals = values[start:end]
		}
		if err := ix.appendNode(keys[start:end], vals); err != nil {
			return err
		}
	}
	ix.length = len(keys)
	return nil
}

// appendNode gap-lays a run into a fresh fixed-capacity node.
func (ix *Index) appendNode(keys, vals []uint64) error {
	g := pla.BuildGapped(keys, vals, nodeCapacity)
	m, err := ix.allocNode(g)
	if err != nil {
		return err
	}
	ix.metas = append(ix.metas, m)
	ix.firsts = append(ix.firsts, m.FirstKey)
	return nil
}

// Insert stores value under key, replacing any existing value.
func (ix *Index) Insert(key, value uint64) error {
	_, err := ix.InsertReplace(key, value)
	return err
}

// InsertReplace implements index.Upserter: the slot probe that decides
// between overwrite and gap insert is the existence answer. A full node
// splits into two fresh PMem nodes.
func (ix *Index) InsertReplace(key, value uint64) (bool, error) {
	if len(ix.metas) == 0 {
		if err := ix.appendNode([]uint64{key}, []uint64{value}); err != nil {
			return false, err
		}
		ix.length++
		return false, nil
	}
	pos := ix.locate(key)
	m := ix.metas[pos]
	if slot, ok := ix.slotOf(m, key); ok {
		ix.setVal(m, slot, value)
		return true, nil
	}
	if m.numKeys >= nodeCapacity*9/10 {
		if err := ix.split(pos); err != nil {
			return false, err
		}
		pos = ix.locate(key)
		m = ix.metas[pos]
	}
	ix.insertIntoNode(m, key, value)
	ix.length++
	return false, nil
}

// insertIntoNode is the ALEX-style gap insert over PMem slots.
func (ix *Index) insertIntoNode(m *nodeMeta, key, value uint64) {
	// rn = leftmost slot with key > target (occupied by the copy
	// invariant); ln = rightmost occupied slot left of rn.
	rn := ix.searchGT(m, key)
	ln := rn - 1
	for ln >= 0 && !ix.usedAt(m, ln) {
		ln--
	}
	place := func(at, nextOcc int) {
		ix.setKey(m, at, key)
		ix.setVal(m, at, value)
		ix.setUsed(m, at, true)
		for i := at + 1; i < nextOcc && i < nodeCapacity; i++ {
			if ix.usedAt(m, i) {
				break
			}
			ix.setKey(m, i, key)
		}
		m.numKeys++
		ix.persistNumKeys(m)
	}
	if rn-ln > 1 {
		at := m.Predict(key, nodeCapacity)
		if at <= ln {
			at = ln + 1
		}
		if at >= rn {
			at = rn - 1
		}
		place(at, rn)
		return
	}
	left := ln
	for left >= 0 && ix.usedAt(m, left) {
		left--
	}
	right := rn
	for right < nodeCapacity && ix.usedAt(m, right) {
		right++
	}
	if left >= 0 && (right >= nodeCapacity || ln-left <= right-rn) {
		for i := left; i < ln; i++ {
			ix.setKey(m, i, ix.keyAt(m, i+1))
			ix.setVal(m, i, ix.valAt(m, i+1))
			ix.setUsed(m, i, true)
		}
		place(ln, rn)
		return
	}
	for i := right; i > rn; i-- {
		ix.setKey(m, i, ix.keyAt(m, i-1))
		ix.setVal(m, i, ix.valAt(m, i-1))
		ix.setUsed(m, i, true)
	}
	place(rn, rn+1)
}

// searchGT returns the leftmost slot with key > target: the leftmost
// with key >= target+1, or nodeCapacity when target is the largest key
// there is.
func (ix *Index) searchGT(m *nodeMeta, key uint64) int {
	if key == ^uint64(0) {
		return nodeCapacity
	}
	return ix.searchGE(m, key+1)
}

// split replaces the node at pos with two half-full nodes.
func (ix *Index) split(pos int) error {
	old := ix.metas[pos]
	keys, vals := ix.loadNode(old)
	mid := len(keys) / 2
	gl := pla.BuildGapped(keys[:mid], vals[:mid], nodeCapacity)
	gr := pla.BuildGapped(keys[mid:], vals[mid:], nodeCapacity)
	ml, err := ix.allocNode(gl)
	if err != nil {
		return err
	}
	mr, err := ix.allocNode(gr)
	if err != nil {
		return err
	}
	ix.retire(old)
	ix.metas[pos] = ml
	ix.metas = append(ix.metas, nil)
	copy(ix.metas[pos+2:], ix.metas[pos+1:])
	ix.metas[pos+1] = mr
	ix.syncFirsts()
	return nil
}

// Delete removes key and reports whether it was present.
func (ix *Index) Delete(key uint64) bool {
	if len(ix.metas) == 0 {
		return false
	}
	m := ix.metas[ix.locate(key)]
	slot, ok := ix.slotOf(m, key)
	if !ok {
		return false
	}
	ix.setUsed(m, slot, false)
	// Refresh gap copies through the following run.
	var left uint64
	for i := slot - 1; i >= 0; i-- {
		if ix.usedAt(m, i) {
			left = ix.keyAt(m, i)
			break
		}
	}
	for i := slot; i < nodeCapacity && !ix.usedAt(m, i); i++ {
		ix.setKey(m, i, left)
	}
	m.numKeys--
	ix.persistNumKeys(m)
	ix.length--
	return true
}

// cursor walks the directory node by node and each node slot by slot;
// every slot probe reads PMem, like Get.
type cursor struct {
	ix        *Index
	pos, slot int
}

var cursorPool = sync.Pool{New: func() any { return new(cursor) }}

// Range implements index.Ranger: one directory probe locates the node
// covering start and that node's model seeks the first slot with a key
// >= start, as Insert does; Next walks the gapped nodes in directory
// order from there. No mutation while the cursor is open.
func (ix *Index) Range(start uint64) index.Cursor {
	c := cursorPool.Get().(*cursor)
	c.ix, c.pos, c.slot = ix, ix.locate(start), 0
	if len(ix.metas) > 0 {
		c.slot = ix.searchGE(ix.metas[c.pos], start)
	}
	return c
}

// Next fills the destination slices with the next entries in key order.
// Keys never decrease along a node's slots (gap slots copy their left
// neighbour), so from the seek onwards every occupied slot is in range.
func (c *cursor) Next(keys, vals []uint64) int {
	ix := c.ix
	n := 0
	for n < len(keys) && c.pos < len(ix.metas) {
		m := ix.metas[c.pos]
		for ; c.slot < nodeCapacity && n < len(keys); c.slot++ {
			if !ix.usedAt(m, c.slot) {
				continue
			}
			keys[n], vals[n] = ix.keyAt(m, c.slot), ix.valAt(m, c.slot)
			n++
		}
		if c.slot == nodeCapacity {
			c.pos, c.slot = c.pos+1, 0
		}
	}
	return n
}

func (c *cursor) Close() {
	c.ix = nil
	cursorPool.Put(c)
}

// Recover rebuilds the DRAM directory from the node log: it reads the
// superblock, walks the logged node offsets, and caches live node
// headers — no key/value data is touched, which is what makes APEX-style
// recovery fast compared to rebuilding a volatile index from records.
func Recover(region *pmem.Region) (*Index, error) {
	sb := region.ReadNoCopy(0, superSize)
	if binary.LittleEndian.Uint64(sb[0:]) != magic {
		return nil, ErrBadRegion
	}
	ix := &Index{
		region: region,
		logOff: int64(binary.LittleEndian.Uint64(sb[8:])),
		logCap: int(binary.LittleEndian.Uint64(sb[16:])),
	}
	for i := 0; i < ix.logCap; i++ {
		off := int64(binary.LittleEndian.Uint64(region.ReadNoCopy(ix.logOff+int64(i)*8, 8)))
		if off == 0 {
			break
		}
		ix.logLen = i + 1
		h := region.ReadNoCopy(off, headerSize)
		if h[40] != 1 {
			continue // retired node
		}
		m := &nodeMeta{
			off: off,
			Model: pla.Model{
				FirstKey:  binary.LittleEndian.Uint64(h[0:]),
				Slope:     math.Float64frombits(binary.LittleEndian.Uint64(h[8:])),
				Intercept: math.Float64frombits(binary.LittleEndian.Uint64(h[16:])),
			},
			numKeys: int(binary.LittleEndian.Uint32(h[28:])),
		}
		ix.metas = append(ix.metas, m)
		ix.length += m.numKeys
	}
	sort.Slice(ix.metas, func(i, j int) bool { return ix.metas[i].FirstKey < ix.metas[j].FirstKey })
	ix.syncFirsts()
	return ix, nil
}

// Sizes reports the footprint: the DRAM directory is the structure; all
// key/value slots live in PMem.
func (ix *Index) Sizes() index.Sizes {
	return index.Sizes{
		Structure: int64(len(ix.metas)) * 56,
		Keys:      int64(len(ix.metas)) * nodeCapacity * 8,
		Values:    int64(len(ix.metas)) * nodeCapacity * 8,
	}
}

// AvgDepth reports one directory probe plus one node model.
func (ix *Index) AvgDepth() float64 { return 1 }

// NodeCount returns the live node count.
func (ix *Index) NodeCount() int { return len(ix.metas) }
