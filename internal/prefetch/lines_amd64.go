package prefetch

import "unsafe"

// lines issues one PREFETCHT0 per 64-byte cache line that the n >= 1
// bytes at p touch: the CPU starts fetching each line (and its page
// translation) into every cache level and goes on without waiting. A
// prefetch never faults and loads nothing into a register, so unlike a
// load it does not hold back the clock read that ends a stall.
//
//go:noescape
func lines(p unsafe.Pointer, n int)
