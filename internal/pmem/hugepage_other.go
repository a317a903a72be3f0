//go:build !linux

package pmem

// adviseHugePages is a no-op where the package asks no page size of the
// kernel: the region keeps the host's default pages, and the device
// accounting is the same.
func adviseHugePages(data []byte) {}
