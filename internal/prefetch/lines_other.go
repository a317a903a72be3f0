//go:build !amd64

package prefetch

import "unsafe"

// lines is a no-op where the package carries no prefetch instruction:
// each miss then waits its turn, and every answer is the same.
func lines(p unsafe.Pointer, n int) {}
