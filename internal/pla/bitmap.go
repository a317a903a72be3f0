package pla

import "math/bits"

// Bitmap is the occupancy map of a gapped array: bit i%64 of word i/64
// is set iff slot i is occupied. Bits past the slot count stay clear.
// The four scans answer in one word operation per 64 slots, which is
// what makes gap-finding and set-bit iteration cheap on a long run.
type Bitmap []uint64

// NewBitmap returns an all-clear map over n slots.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Has reports whether slot i is occupied.
func (b Bitmap) Has(i int) bool { return b[i>>6]>>(uint(i)&63)&1 != 0 }

// Set marks slot i occupied.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear marks slot i free.
func (b Bitmap) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// NextSet returns the first occupied slot in [i, n), or n.
func (b Bitmap) NextSet(i, n int) int {
	if i >= n {
		return n
	}
	if x := b[i>>6] >> (uint(i) & 63); x != 0 {
		return i + bits.TrailingZeros64(x)
	}
	for w := i>>6 + 1; w < len(b); w++ {
		if b[w] != 0 {
			return w<<6 + bits.TrailingZeros64(b[w])
		}
	}
	return n
}

// PrevSet returns the last occupied slot in [0, i], or -1.
func (b Bitmap) PrevSet(i int) int {
	if i < 0 {
		return -1
	}
	if x := b[i>>6] << (63 - uint(i)&63); x != 0 {
		return i - bits.LeadingZeros64(x)
	}
	for w := i>>6 - 1; w >= 0; w-- {
		if b[w] != 0 {
			return w<<6 + 63 - bits.LeadingZeros64(b[w])
		}
	}
	return -1
}

// NextClear returns the first free slot in [i, n), or n.
func (b Bitmap) NextClear(i, n int) int {
	if i >= n {
		return n
	}
	if x := ^b[i>>6] >> (uint(i) & 63); x != 0 {
		return min(i+bits.TrailingZeros64(x), n)
	}
	for w := i>>6 + 1; w < len(b); w++ {
		if x := ^b[w]; x != 0 {
			return min(w<<6+bits.TrailingZeros64(x), n)
		}
	}
	return n
}

// PrevClear returns the last free slot in [0, i], or -1.
func (b Bitmap) PrevClear(i int) int {
	if i < 0 {
		return -1
	}
	if x := ^b[i>>6] << (63 - uint(i)&63); x != 0 {
		return i - bits.LeadingZeros64(x)
	}
	for w := i>>6 - 1; w >= 0; w-- {
		if x := ^b[w]; x != 0 {
			return w<<6 + 63 - bits.LeadingZeros64(x)
		}
	}
	return -1
}
