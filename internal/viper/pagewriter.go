package viper

import (
	"fmt"

	"learnedpieces/internal/pmem"
)

// pageWriter gathers the records of the bulk paths (BulkPut, Compact's
// copy) from its private page source and writes each page's filled
// prefix as one span (writeSpan): one write and one flush, charged the
// lines a sequential write covers, where a Put pays a write, a flush and
// its straddled block per record. Pages come zeroed from the allocator,
// so the terminator behind the prefix is already there.
//
// A gathered value is held until its page is written: Compact's are
// views of the source records, already read and paid for, which nothing
// writes while Compact runs.
type pageWriter struct {
	region *pmem.Region
	next   func() (int64, error) // hands out the next page to fill
	pages  []int64               // pages taken so far; the last is being filled
	used   int                   // bytes of the last page the gathered records fill
	keys   []uint64              // the records gathered for the last page
	vals   [][]byte
}

// newPageWriter starts out "full", so the first append takes a page.
func (s *Store) newPageWriter(next func() (int64, error)) *pageWriter {
	return &pageWriter{region: s.region, next: next, used: PageSize}
}

// append gathers one live record (no longer than a page) and returns the
// offset it will have on the device; a record that does not fit commits
// the page and takes the next.
func (w *pageWriter) append(key uint64, value []byte) (uint64, error) {
	n := recordHeader + len(value)
	if w.used+n > PageSize {
		w.commit()
		page, err := w.next()
		if err != nil {
			return 0, err
		}
		w.pages, w.used = append(w.pages, page), 0
	}
	w.keys = append(w.keys, key)
	w.vals = append(w.vals, value)
	w.used += n
	return uint64(w.pages[len(w.pages)-1]) + uint64(w.used-n), nil
}

// commit writes the gathered records as the page's one span.
func (w *pageWriter) commit() {
	if len(w.keys) == 0 {
		return
	}
	writeSpan(w.region, w.pages[len(w.pages)-1], w.used, w.keys, w.vals)
	w.keys, w.vals = w.keys[:0], w.vals[:0]
}

// allocPage reserves one fresh page.
func (s *Store) allocPage() (int64, error) {
	off, err := s.region.Alloc(PageSize)
	if err != nil {
		return 0, fmt.Errorf("%w: %w", ErrFull, err)
	}
	s.met.PageRollover()
	return off, nil
}

func freePages(region *pmem.Region, pages []int64) {
	for _, p := range pages {
		region.Free(p, PageSize)
	}
}
