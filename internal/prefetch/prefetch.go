// Package prefetch starts the cache misses a lookup knows it will take
// before it waits for the first of them. A search over a window that
// spans several cache lines, or a node whose answer sits in a second
// array, otherwise pays one miss after another: each probe's address
// depends on the previous probe's answer. Issuing every line up front
// lets the memory system fetch them together, and the dependent probes
// that follow hit the cache.
package prefetch

import "unsafe"

// Slice hints that s is about to be read: it issues one prefetch per
// cache line that s's elements cover and returns without waiting. It
// loads nothing, never faults and does nothing for an empty slice, so
// a caller may pass any window of a slice, including nil and one that
// ends at its backing array's end.
//
//pieces:hotpath
func Slice[E any](s []E) {
	if len(s) == 0 {
		return
	}
	lines(unsafe.Pointer(unsafe.SliceData(s)), len(s)*int(unsafe.Sizeof(s[0])))
}
