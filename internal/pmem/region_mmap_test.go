//go:build linux && !race

package pmem

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestDeadRegionMappingReused: once a dead region's finalizer has run,
// the next region of its size gets the mapping back, reading as zeros,
// and with the huge-page advice its size calls for. The sizes are odd
// ones no other test of the package uses, so the mapping handed back is
// the one this test let die.
func TestDeadRegionMappingReused(t *testing.T) {
	for _, c := range []struct {
		size   int
		advise bool
	}{{1<<20 + 4096, false}, {6<<20 + 4096, true}} {
		addr := deadRegion(t, c.size)
		r := NewRegion(c.size, None())
		if got := uintptr(unsafe.Pointer(&r.data[0])); got != addr {
			t.Fatalf("%d-byte region mapped at %#x, want the dead region's %#x", c.size, got, addr)
		}
		if i := slices.IndexFunc(r.data, func(b byte) bool { return b != 0 }); i >= 0 {
			t.Fatalf("%d-byte region: reused mapping holds %#x at %d, want zeros", c.size, r.data[i], i)
		}
		r.data[len(r.data)/2] = 1 // fault a page in, so smaps lists the mapping
		flags, _ := smapsOf(t, &r.data[len(r.data)/2])
		if got := strings.Contains(" "+flags+" ", " hg "); got != c.advise {
			t.Fatalf("%d-byte region: VmFlags %q, hg = %v, want %v", c.size, flags, got, c.advise)
		}
		runtime.KeepAlive(r)
	}
}

// TestKeptViewOutlivesRegion shows why a view must not outlive its
// Region: the view does not keep the Region alive, so once the Region is
// collected the view reads zeros, and once the mapping is handed to the
// next region of its size, that region's bytes.
func TestKeptViewOutlivesRegion(t *testing.T) {
	const size = 3<<20 + 4096 // a size no other test of the package uses
	r := NewRegion(size, None())
	r.Write(0, []byte("value"))
	view := r.ReadNoCopy(0, 5)
	addr := uintptr(unsafe.Pointer(&view[0]))
	r = nil
	awaitRelease(t, size, addr)
	if string(view) != "\x00\x00\x00\x00\x00" {
		t.Fatalf("view of a released region reads %q, want zeros", view)
	}
	next := NewRegion(size, None())
	next.Write(0, []byte("other"))
	if string(view) != "other" {
		t.Fatalf("view of a reused mapping reads %q, want the next region's %q", view, "other")
	}
	runtime.KeepAlive(next)
}

// deadRegion fills a region of the given size, drops it and collects
// garbage until its finalizer has released the mapping, whose address
// it returns.
func deadRegion(t *testing.T, size int) uintptr {
	t.Helper()
	r := NewRegion(size, None())
	for i := 0; i < size; i += 4096 {
		r.data[i] = 0xab
	}
	addr := uintptr(unsafe.Pointer(&r.data[0]))
	r = nil
	awaitRelease(t, size, addr)
	return addr
}

// awaitRelease collects garbage until the dead region mapped at addr has
// been released into the pool.
func awaitRelease(t *testing.T, size int, addr uintptr) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !released(size, addr); {
		if time.Now().After(deadline) {
			t.Fatalf("the %d-byte region's mapping was not released within 10s", size)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

func released(size int, addr uintptr) bool {
	deadMappings.Lock()
	defer deadMappings.Unlock()
	return slices.ContainsFunc(deadMappings.bySize[size], func(m []byte) bool {
		return uintptr(unsafe.Pointer(&m[0])) == addr
	})
}
