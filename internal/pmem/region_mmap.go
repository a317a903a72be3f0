//go:build linux && !race

package pmem

import (
	"runtime"
	"sync"
	"syscall"
)

// deadMappings holds the mappings of dead regions by exact size, released
// and ready for the next region of that size. No mapping is ever
// unmapped: a view a caller wrongly kept past its region's death reads
// zeros or the next region's bytes, never a fault. Keying on the exact
// size keeps each mapping's huge-page advice right for its next region.
var deadMappings struct {
	sync.Mutex
	bySize map[int][][]byte
}

// mapData backs r with size bytes outside the Go heap: a dead region's
// mapping of that size, or a fresh anonymous one, advised to 2 MiB pages
// before anything touches it. Either reads as zeros and has no page
// behind it yet, so nothing is zeroed here; a page pays its fault when
// first written. When r dies, a finalizer releases the mapping's pages
// to the kernel and keeps the mapping for reuse. Should the kernel refuse
// the mapping, r falls back to a heap slice.
func (r *Region) mapData(size int) {
	if size <= 0 {
		r.data = make([]byte, size)
		return
	}
	deadMappings.Lock()
	list := deadMappings.bySize[size]
	if len(list) > 0 {
		r.data = list[len(list)-1]
		deadMappings.bySize[size] = list[:len(list)-1]
	}
	deadMappings.Unlock()
	if r.data == nil {
		data, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
		if err != nil {
			r.data = make([]byte, size)
			adviseHugePages(r.data)
			return
		}
		adviseHugePages(data)
		r.data = data
	}
	runtime.SetFinalizer(r, (*Region).release)
}

// release is a dead region's finalizer: MADV_DONTNEED hands its pages
// back, so the mapping reads as zeros again, and the mapping waits for
// the next region of its size. A mapping the kernel would not release
// still holds the dead region's bytes, so it is left where it is.
func (r *Region) release() {
	if syscall.Madvise(r.data, syscall.MADV_DONTNEED) != nil {
		return
	}
	deadMappings.Lock()
	defer deadMappings.Unlock()
	if deadMappings.bySize == nil {
		deadMappings.bySize = make(map[int][][]byte)
	}
	deadMappings.bySize[len(r.data)] = append(deadMappings.bySize[len(r.data)], r.data)
}
