package pmem

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"
	"unsafe"
)

// TestRegionAdvisesHugePages: a region of at least one huge page is
// advised to 2 MiB pages (its mapping carries the kernel's "hg" flag), a
// smaller one is not. Whether the kernel then finds free huge pages
// depends on memory fragmentation, so AnonHugePages is logged, not
// asserted. The 1 MiB region is checked first and every advised one is
// kept alive, so the small one never lands in freed advised memory, even
// under -count.
func TestRegionAdvisesHugePages(t *testing.T) {
	if _, err := os.Stat("/sys/kernel/mm/transparent_hugepage/enabled"); err != nil {
		t.Skip("kernel without transparent huge pages:", err)
	}
	for _, c := range []struct {
		size   int
		advise bool
	}{{1 << 20, false}, {8 << 20, true}} {
		r := NewRegion(c.size, None())
		for i := 0; i < len(r.data); i += 4096 {
			r.data[i] = 1 // fault the backing in
		}
		flags, anonHuge := smapsOf(t, &r.data[len(r.data)/2])
		if got := strings.Contains(" "+flags+" ", " hg "); got != c.advise {
			t.Fatalf("%d-byte region: VmFlags %q, hg = %v, want %v", c.size, flags, got, c.advise)
		}
		t.Logf("%d-byte region: AnonHugePages %s", c.size, anonHuge)
		if c.advise {
			advisedRegions = append(advisedRegions, r)
		}
	}
}

var advisedRegions []*Region

// smapsOf returns the VmFlags and AnonHugePages fields of the
// /proc/self/smaps mapping that holds p.
func smapsOf(t *testing.T, p *byte) (flags, anonHuge string) {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skip(err)
	}
	defer f.Close()
	addr := uintptr(unsafe.Pointer(p))
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		var lo, hi uintptr
		if n, _ := fmt.Sscanf(line, "%x-%x", &lo, &hi); n == 2 {
			in = lo <= addr && addr < hi
			continue
		}
		if !in {
			continue
		}
		if v, ok := strings.CutPrefix(line, "AnonHugePages:"); ok {
			anonHuge = strings.TrimSpace(v)
		}
		if v, ok := strings.CutPrefix(line, "VmFlags:"); ok {
			return strings.TrimSpace(v), anonHuge
		}
	}
	t.Fatalf("no /proc/self/smaps mapping holds %#x (scan error %v)", addr, sc.Err())
	return "", ""
}
