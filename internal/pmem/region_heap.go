//go:build !linux || race

package pmem

// mapData backs r with a zeroed heap slice. The race detector watches
// only heap memory, so race builds keep regions there to see a racy
// access to region bytes; off Linux the package asks the kernel for
// nothing.
func (r *Region) mapData(size int) {
	r.data = make([]byte, size)
	adviseHugePages(r.data)
}
