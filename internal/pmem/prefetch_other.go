//go:build !amd64

package pmem

// prefetch is a no-op where the package carries no prefetch instruction:
// the host fetch then follows the stall instead of overlapping it, and
// the device accounting is the same.
func prefetch(p *byte, n int) {}
