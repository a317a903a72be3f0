package pmem

import "syscall"

// adviseHugePages asks the kernel to back data with 2 MiB pages, the
// mapping a DAX-mapped PMem namespace gets by default, so a record access
// pays no 4 KiB page walk the device model does not bill. The error is
// ignored: a kernel without transparent huge pages keeps 4 KiB pages.
func adviseHugePages(data []byte) {
	if len(data) >= 2<<20 {
		_ = syscall.Madvise(data, syscall.MADV_HUGEPAGE)
	}
}
