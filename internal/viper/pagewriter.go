package viper

import (
	"encoding/binary"
	"fmt"

	"learnedpieces/internal/pmem"
)

// pageWriter is the write site of the bulk paths (BulkPut, Compact's
// copy): it stages records into a DRAM image of one PMem page and hands
// the device the staged prefix at once — one write and one flush per page,
// charged the lines a sequential write covers, where appendRecord pays a
// write, a flush and its straddled block per record. Pages come zeroed
// from the allocator, so the terminator behind the prefix is already there.
type pageWriter struct {
	region *pmem.Region
	next   func() (int64, error) // hands out the next page to fill
	img    []byte                // PageSize bytes
	pages  []int64               // pages taken so far; the last is being staged
	used   int                   // bytes staged into img
}

// newPageWriter starts out "full", so the first append takes a page.
func (s *Store) newPageWriter(next func() (int64, error)) *pageWriter {
	return &pageWriter{region: s.region, next: next, img: make([]byte, PageSize), used: PageSize}
}

// append stages one live record (no longer than a page) and returns the
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
	rec := w.img[w.used : w.used+n]
	binary.LittleEndian.PutUint64(rec[0:8], key)
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(value)))
	rec[12] = 0
	copy(rec[recordHeader:], value)
	w.used += n
	return uint64(w.pages[len(w.pages)-1]) + uint64(w.used-n), nil
}

// commit is the staged page's one device write and one flush.
func (w *pageWriter) commit() {
	if len(w.pages) > 0 {
		page := w.pages[len(w.pages)-1]
		w.region.Write(page, w.img[:w.used])
		w.region.Flush(page, w.used)
	}
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
