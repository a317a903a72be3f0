// Package pmem exercises the pmem-discipline analyzer: writing through
// or retaining a zero-copy Region view, or retaining the dst a WriteFill
// hands its fill, is flagged, while borrowing (decode and return, format
// inside the fill) passes.
package pmem

import "learnedpieces/internal/pmem"

type cache struct {
	view []byte
}

var global []byte

// Mutate writes through a zero-copy view, directly and via copy.
func Mutate(r *pmem.Region) {
	v := r.ReadNoCopy(0, 16)
	v[0] = 1 // want "write through PMem-backed bytes"
	w := v[4:8]
	copy(w, []byte{1, 2}) // want "copy into PMem-backed bytes"
}

// Retain parks views beyond the call.
func Retain(r *pmem.Region, c *cache) {
	v := r.ReadNoCopy(0, 16)
	c.view = v     // want "retained in a struct field"
	global = v[2:] // want "retained in package variable global"
}

// Borrow reads through a view and returns it — both legal.
func Borrow(r *pmem.Region) ([]byte, byte) {
	v := r.ReadNoCopy(0, 8)
	return v[1:], v[0]
}

// Copied goes through the copying accessor and may do anything.
func Copied(r *pmem.Region, c *cache) {
	buf := make([]byte, 8)
	r.Read(0, buf)
	buf[0] = 1
	c.view = buf
}

// Fill formats through the dst WriteFill hands it, directly, via copy
// and through a re-slicing — all legal.
func Fill(r *pmem.Region) {
	r.WriteFill(0, 16, func(dst []byte) {
		dst[0] = 1
		rec := dst[4:]
		copy(rec, []byte{1, 2})
	})
}

// KeepFill parks a fill's dst beyond its write.
func KeepFill(r *pmem.Region, c *cache) {
	r.WriteFill(0, 16, func(dst []byte) {
		rec := dst[2:]
		c.view = rec // want "WriteFill dst retained in a struct field"
		global = dst // want "WriteFill dst retained in package variable global"
	})
}

// RoundFill formats through the dst a round's write hands its fill, as
// WriteFill's — legal.
func RoundFill(r *pmem.Region, rd *pmem.Round) {
	rd.WriteFill(r, 0, 16, func(dst []byte) {
		dst[0] = 1
		copy(dst[4:], []byte{1, 2})
	})
	rd.Wait()
}

// KeepRoundFill parks the dst of a round's write beyond it.
func KeepRoundFill(r *pmem.Region, rd *pmem.Round, c *cache) {
	rd.WriteFill(r, 0, 16, func(dst []byte) {
		c.view = dst[2:] // want "WriteFill dst retained in a struct field"
	})
}
