package viper

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"learnedpieces/internal/pmem"
)

// A page's first stampSize bytes are its stamp: stampMagic, the page's
// sequence number, its kind and its reservation, the rest zero. Sequence
// numbers are region-wide and only grow: every stamp written takes the
// next one, so a reused page's records never rank below those of its old
// life. The stamp is written inside the page's first span, so a page in
// the log is never unstamped between store calls, with one exception: a
// BulkPut writes its fresh pages, which follow one another from the
// allocator's head, in any order, after one free stamp on the first of
// them. That stamp, and the log stamp of each fresh page, carries the
// reservation: the offset behind the load's last fresh page. A chunk below
// it that the walk finds unstamped belongs to the load and was not yet
// written. Stamps without a reservation (0) read as before, and so do
// images written before it existed, whose bytes 17–31 are zero.
const (
	stampSize  = 32
	stampMagic = 0x3167_7072_6570_6976 // "viperpg1", little-endian

	pageLog  = 1 // the page is part of the log
	pageFree = 2 // Compact displaced the page; its records are dead
)

// putStamp formats a stamp at the front of dst.
func putStamp(dst []byte, seq uint64, kind byte, resv int64) {
	binary.LittleEndian.PutUint64(dst[0:8], stampMagic)
	binary.LittleEndian.PutUint64(dst[8:16], seq)
	dst[16] = kind
	binary.LittleEndian.PutUint64(dst[17:25], uint64(resv))
	clear(dst[25:stampSize])
}

// pageWalk is what the page stamps say the region holds.
type pageWalk struct {
	log     []int64 // log pages, oldest (lowest sequence number) first
	free    []int64 // pages stamped free, and cleared
	cleared []int64 // unstamped chunks below the log's end: caught by a crash before their stamp
	seq     uint64  // the largest sequence number stamped
	end     int64   // the offset behind the last stamped or cleared chunk
}

// walkPages reads the stamp of each PageSize chunk of the region, one
// device read each, from offset 0. Below the allocator's head a chunk
// without a stamp is skipped, and at or past it the first such chunk ends
// the walk: a store's allocator is at the log's end, so its walk costs one
// read past its pages. A fresh region restored from an image has handed
// out nothing (head 0), so there an unstamped chunk ends the walk only when
// it lies outside every reservation read so far and the next chunk is
// unstamped too, and an empty region costs two reads. The store takes a
// page and stamps it under its lock, so below the log's end an unstamped
// chunk is one of two things: a reused page whose stamp Region.Alloc has
// cleared and the store has not yet rewritten, at most one at any instant,
// or a fresh page of a BulkPut not yet written, inside the reservation its
// first fresh page carries. Neither belonged to an acknowledged write; the
// walk lists each free and cleared.
func walkPages(region *pmem.Region) pageWalk {
	type stamped struct {
		seq uint64
		off int64
	}
	var log []stamped
	var w pageWalk
	var resv int64 // the furthest reservation read so far
	head, size := region.Allocated(), int64(region.Size())
	for off := int64(0); off+PageSize <= size; off += PageSize {
		b := region.ReadNoCopy(off, stampSize)
		if !isStamp(b) {
			if off < head {
				continue
			}
			if off >= resv && (head != 0 || off+2*PageSize > size || !isStamp(region.ReadNoCopy(off+PageSize, stampSize))) {
				break
			}
			w.free = append(w.free, off)
			w.cleared = append(w.cleared, off)
			w.end = off + PageSize
			continue
		}
		seq := binary.LittleEndian.Uint64(b[8:16])
		w.seq, w.end = max(w.seq, seq), off+PageSize
		resv = max(resv, int64(binary.LittleEndian.Uint64(b[17:25])))
		switch b[16] {
		case pageLog:
			log = append(log, stamped{seq, off})
		case pageFree:
			w.free = append(w.free, off)
		}
	}
	slices.SortFunc(log, func(a, b stamped) int { return cmp.Compare(a.seq, b.seq) })
	for _, p := range log {
		w.log = append(w.log, p.off)
	}
	return w
}

func isStamp(b []byte) bool { return binary.LittleEndian.Uint64(b[0:8]) == stampMagic }

// pageWriter gathers the records of Compact's copy from its private page
// source and writes each page's stamp and filled prefix as one span
// (writeSpan): one write and one flush, charged the lines a sequential
// write covers, where a Put pays a write, a flush and its straddled block
// per record. Each span is a lone write, which pays its stall before the
// writer gathers on: Compact reads its source records between writes.
// BulkPut needs no pageWriter: its layout is settled before anything is
// written, so it writes its pages straight into rounds. Pages come zeroed
// from the allocator, so the terminator behind the prefix is already
// there.
//
// A gathered value is held until its page is written: Compact's are
// views of the source records, already read and paid for, which nothing
// writes while Compact runs.
type pageWriter struct {
	region *pmem.Region
	next   func() (int64, uint64, error) // hands out the next page to fill and its sequence number
	pages  []int64                       // pages taken so far; the last is being filled
	seq    uint64                        // the sequence number the last page's stamp carries
	used   int                           // bytes of the last page its stamp and gathered records fill
	keys   []uint64                      // the records gathered for the last page
	vals   [][]byte
}

// newPageWriter starts out "full", so the first append takes a page.
func (s *Store) newPageWriter(next func() (int64, uint64, error)) *pageWriter {
	return &pageWriter{region: s.region, next: next, used: PageSize}
}

// append gathers one live record (no longer than a page behind its stamp)
// and returns the offset it will have on the device; a record that does
// not fit commits the page and takes the next.
func (w *pageWriter) append(key uint64, value []byte) (uint64, error) {
	n := recordHeader + len(value)
	if w.used+n > PageSize {
		w.commit()
		page, seq, err := w.next()
		if err != nil {
			return 0, err
		}
		w.pages, w.seq, w.used = append(w.pages, page), seq, stampSize
	}
	w.keys = append(w.keys, key)
	w.vals = append(w.vals, value)
	w.used += n
	return uint64(w.pages[len(w.pages)-1]) + uint64(w.used-n), nil
}

// commit writes the page's stamp and gathered records as its one span.
func (w *pageWriter) commit() {
	if len(w.keys) == 0 {
		return
	}
	writeSpan(nil, w.region, w.pages[len(w.pages)-1], w.used, w.seq, 0, w.keys, w.vals)
	w.keys, w.vals = w.keys[:0], w.vals[:0]
}

// allocPage reserves one fresh page. The caller holds s.mu and stamps the
// page before it lets go (walkPages relies on it).
func (s *Store) allocPage() (int64, error) {
	off, err := s.region.Alloc(PageSize)
	if err != nil {
		return 0, fmt.Errorf("%w: %w", ErrFull, err)
	}
	s.met.PageRollover()
	return off, nil
}

// takePage reserves a page for Compact's copy and stamps it free under
// seq, which its log stamp repeats when the page is written: a crash
// before then leaves it free. The caller holds s.mu.
func (s *Store) takePage(seq uint64) (int64, error) {
	off, err := s.allocPage()
	if err == nil {
		s.stamp(off, seq, pageFree, 0)
	}
	return off, err
}

// stamp writes one stamp at off with one write and one flush.
func (s *Store) stamp(off int64, seq uint64, kind byte, resv int64) {
	s.region.WriteFill(off, stampSize, func(dst []byte) { putStamp(dst, seq, kind, resv) })
	s.region.Flush(off, stampSize)
}

// stampFree stamps pages free, in order, each under the next sequence
// number.
func (s *Store) stampFree(pages []int64) {
	for _, p := range pages {
		s.stamp(p, s.seq.Add(1), pageFree, 0)
	}
}

// discard stamps pages no reader can reach free and frees them: the pages
// a failed BulkPut or Compact took.
func (s *Store) discard(pages []int64) {
	s.stampFree(pages)
	freePages(s.region, pages)
}

func freePages(region *pmem.Region, pages []int64) {
	for _, p := range pages {
		region.Free(p, PageSize)
	}
}
