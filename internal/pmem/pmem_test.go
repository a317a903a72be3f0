package pmem

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestAllocAndRW(t *testing.T) {
	r := NewRegion(4096, None())
	off1, err := r.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	off2, err := r.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if off2 < off1+100 {
		t.Fatalf("overlapping allocations: %d, %d", off1, off2)
	}
	payload := []byte("hello pmem")
	r.Write(off1, payload)
	buf := make([]byte, len(payload))
	r.Read(off1, buf)
	if string(buf) != string(payload) {
		t.Fatalf("read back %q", buf)
	}
	if string(r.ReadNoCopy(off1, len(payload))) != string(payload) {
		t.Fatal("ReadNoCopy mismatch")
	}
}

func TestOutOfSpace(t *testing.T) {
	r := NewRegion(128, None())
	if _, err := r.Alloc(100); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Alloc(100); err != ErrOutOfSpace {
		t.Fatalf("got %v, want ErrOutOfSpace", err)
	}
}

func TestStatsCount(t *testing.T) {
	r := NewRegion(1024, None())
	r.Write(0, []byte{1})
	r.Read(0, make([]byte, 1))
	r.Flush(0, 1)
	reads, writes, flushes := r.Stats()
	if reads != 1 || writes != 1 || flushes != 1 {
		t.Fatalf("stats %d/%d/%d", reads, writes, flushes)
	}
}

func TestLatencyInjection(t *testing.T) {
	r := NewRegion(1<<16, LatencyModel{ReadNs: 2000, WriteNs: 0})
	buf := make([]byte, 64)
	start := time.Now()
	for i := 0; i < 100; i++ {
		// Alternate blocks so the block buffer never hits.
		r.Read(int64(i%2)*4096, buf)
	}
	elapsed := time.Since(start)
	if elapsed < 150*time.Microsecond {
		t.Fatalf("latency not injected: 100 reads took %v, want >= 200us nominal", elapsed)
	}
}

func TestBlockBufferHitIsFree(t *testing.T) {
	r := NewRegion(1<<16, LatencyModel{ReadNs: 50_000, WriteNs: 0})
	buf := make([]byte, 8)
	r.Read(0, buf) // charge once
	start := time.Now()
	for i := 0; i < 100; i++ {
		r.Read(int64(i*8%blockSize), buf) // same block every time
	}
	if elapsed := time.Since(start); elapsed > 2*time.Millisecond {
		t.Fatalf("block-buffer hits were charged: 100 same-block reads took %v", elapsed)
	}
	// Crossing to another block charges again.
	start = time.Now()
	r.Read(blockSize*8, buf)
	if elapsed := time.Since(start); elapsed < 40*time.Microsecond {
		t.Fatalf("block miss not charged: took %v", elapsed)
	}
}

func TestSnapshotRestore(t *testing.T) {
	r := NewRegion(1024, None())
	r.Write(10, []byte("persisted"))
	snap := r.Snapshot()
	r.Write(10, []byte("scribbled"))
	r.Restore(snap)
	if got := string(r.ReadNoCopy(10, 9)); got != "persisted" {
		t.Fatalf("after restore: %q", got)
	}
}

// TestAllocReuseIsZeroed: a freed chunk comes back from Alloc all zero (a
// page scan ends at the zeroed header behind the last record), and Restore
// of a snapshot shorter than the region zeroes what lies behind it.
func TestAllocReuseIsZeroed(t *testing.T) {
	r := NewRegion(4096, None())
	if _, err := r.Alloc(512); err != nil {
		t.Fatal(err)
	}
	off, err := r.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	dirty := bytes.Repeat([]byte{0xEE}, 4096-int(off))
	r.Write(off, dirty) // the chunk and everything behind it
	r.Free(off, 1024)
	if got, err := r.Alloc(1024); err != nil || got != off {
		t.Fatalf("Alloc = %d, %v; want the freed chunk at %d", got, err, off)
	}
	if !bytes.Equal(r.ReadNoCopy(off, 1024), make([]byte, 1024)) {
		t.Fatal("reused chunk is not zeroed")
	}
	if !bytes.Equal(r.ReadNoCopy(off+1024, len(dirty)-1024), dirty[1024:]) || r.ReadNoCopy(off-1, 1)[0] != 0 {
		t.Fatal("zeroing the reused chunk touched its neighbours")
	}

	r.Restore([]byte("short"))
	if want := append([]byte("short"), make([]byte, 4096-5)...); !bytes.Equal(r.ReadNoCopy(0, 4096), want) {
		t.Fatal("Restore of a short snapshot left bytes behind it")
	}
}

// TestPrefetchIsNotAnAccess: the prefetch hint moves no counter field,
// pays no stall and leaves the modelled block buffer where it was, up to
// the region's last byte.
func TestPrefetchIsNotAnAccess(t *testing.T) {
	r := NewRegion(1<<12, LatencyModel{ReadNs: 3, WriteNs: 7})
	r.Write(0, []byte{42})
	r.ReadNoCopy(0, 1) // the block buffer now holds block 0
	before := r.AccessStats()
	for _, off := range []int64{0, 1024, int64(r.Size() - 1)} {
		r.Prefetch(off)
	}
	if got := r.AccessStats(); got != before {
		t.Fatalf("Prefetch changed the device accounting: %+v, was %+v", got, before)
	}
	r.ReadNoCopy(8, 1) // still a block-buffer hit: counted, not stalled
	want := before
	want.Reads++
	want.LineReads++
	if got := r.AccessStats(); got != want {
		t.Fatalf("read after Prefetch charged %+v, want %+v", got, want)
	}
}

// TestEmptyAccessTouchesNoBlock: a zero-length read or write counts its
// call and nothing else — no line, no stall — and leaves the block buffer
// on the block the previous access touched, at any offset up to and
// including the region's end.
func TestEmptyAccessTouchesNoBlock(t *testing.T) {
	lat := LatencyModel{ReadNs: 3, WriteNs: 7}
	const size, buffered = 1 << 12, 5 * blockSize
	ops := []struct {
		name  string
		write bool
		do    func(r *Region, off int64)
	}{
		{"Read", false, func(r *Region, off int64) { r.Read(off, nil) }},
		{"ReadNoCopy", false, func(r *Region, off int64) {
			if v := r.ReadNoCopy(off, 0); len(v) != 0 {
				t.Fatalf("ReadNoCopy(%d, 0) returned %d bytes", off, len(v))
			}
		}},
		{"Write", true, func(r *Region, off int64) { r.Write(off, nil) }},
		{"WriteGather", true, func(r *Region, off int64) { r.WriteGather(off, nil, []byte{}) }},
	}
	for _, op := range ops {
		for _, off := range []int64{0, 100, blockSize, size} {
			r := NewRegion(size, lat)
			r.ReadNoCopy(buffered, 1) // the block buffer now holds block 5
			before := r.AccessStats()
			op.do(r, off)
			want := before
			if op.write {
				want.Writes++
			} else {
				want.Reads++
			}
			if got := r.AccessStats(); got != want {
				t.Fatalf("%s of 0 bytes at %d charged %+v, want %+v", op.name, off, got, want)
			}
			r.ReadNoCopy(buffered+8, 1) // still a block-buffer hit
			want.Reads++
			want.LineReads++
			if got := r.AccessStats(); got != want {
				t.Fatalf("%s of 0 bytes at %d moved the block buffer: next read charged %+v, want %+v", op.name, off, got, want)
			}
		}
	}
}

// roundAccesses covers a round's cases: a stalled read, a block-buffer
// hit, a zero-length access, a multi-block span whose first block is the
// buffered one, a hit on that span's last block and a fresh block.
var roundAccesses = []struct {
	off int64
	n   int
}{{0, 1}, {8, 4}, {100, 0}, {200, 700}, {900, 10}, {5000, 1}, {5010, 0}, {4096, 300}}

// TestRoundChargesAsLoneAccesses is the invariant a read round rests on:
// N accesses made as one Round leave the device accounting (counters,
// stall asked, block buffer) exactly where the same N accesses made one
// at a time on a fresh region leave it, and return the same bytes, under
// a stalling model and under None().
func TestRoundChargesAsLoneAccesses(t *testing.T) {
	for _, lat := range []LatencyModel{{ReadNs: 3, WriteNs: 7}, None()} {
		lone, round := NewRegion(1<<13, lat), NewRegion(1<<13, lat)
		for i := range lone.data {
			lone.data[i], round.data[i] = byte(i*7), byte(i*7)
		}
		var rd Round
		for _, a := range roundAccesses {
			want := lone.ReadNoCopy(a.off, a.n)
			if got := rd.ReadNoCopy(round, a.off, a.n); !bytes.Equal(got, want) {
				t.Fatalf("%+v: round read of %d bytes at %d returned other bytes", lat, a.n, a.off)
			}
			if got, want := round.AccessStats(), lone.AccessStats(); got != want {
				t.Fatalf("%+v: after %d bytes at %d the round charged %+v, lone accesses %+v", lat, a.n, a.off, got, want)
			}
		}
		rd.Wait()
		// The block buffer ended on the same block: the next read is a
		// hit on both regions, or a miss on both.
		lone.ReadNoCopy(4390, 1)
		rd.ReadNoCopy(round, 4390, 1)
		if got, want := round.AccessStats(), lone.AccessStats(); got != want {
			t.Fatalf("%+v: the round left the block buffer elsewhere: %+v, lone %+v", lat, got, want)
		}
		rd.Wait()
	}
}

// TestRoundPaysItsStall: a round's Wait returns no earlier than the
// stall its accesses asked, counted from before the first of them, and a
// lone access returns no earlier than its own. Only lower bounds are
// asserted: the wall clock may always pay more.
func TestRoundPaysItsStall(t *testing.T) {
	r := NewRegion(1<<13, LatencyModel{ReadNs: 20_000, WriteNs: 10_000})
	for rep := 0; rep < 2; rep++ { // a waited round is empty and reusable
		var rd Round
		before := r.AccessStats()
		start := time.Now()
		for _, a := range roundAccesses {
			rd.ReadNoCopy(r, a.off, a.n)
		}
		rd.Wait()
		elapsed := time.Since(start)
		if asked := r.AccessStats().ReadStallNs - before.ReadStallNs; asked == 0 || elapsed < time.Duration(asked) {
			t.Fatalf("round %d asked %d ns of stall and returned after %v", rep, asked, elapsed)
		}
	}
	for _, access := range []func(){
		func() { r.ReadNoCopy(6000, 600) },
		func() { r.Read(200, make([]byte, 300)) },
		func() { r.WriteGather(3000, make([]byte, 13), make([]byte, 700)) },
	} {
		before := r.AccessStats()
		start := time.Now()
		access()
		elapsed := time.Since(start)
		after := r.AccessStats()
		if asked := after.ReadStallNs + after.WriteStallNs - before.ReadStallNs - before.WriteStallNs; asked == 0 || elapsed < time.Duration(asked) {
			t.Fatalf("a lone access asked %d ns of stall and returned after %v", asked, elapsed)
		}
	}
}

// TestRoundResume: a round resumed after caller work that outlasted its
// stalls pays the next accesses from the resume, not from its first
// access; a resume that finds stall still outstanding leaves the
// deadline alone, and on an empty round it is a no-op.
func TestRoundResume(t *testing.T) {
	const readNs = 20_000
	r := NewRegion(1<<13, LatencyModel{ReadNs: readNs})
	var rd Round
	rd.Resume()
	if rd.deadline != 0 {
		t.Fatalf("Resume on an empty round set deadline %d", rd.deadline)
	}
	rd.ReadNoCopy(r, 0, 1)
	first := rd.deadline
	rd.Resume()
	if rd.deadline != first {
		t.Fatalf("Resume with stall outstanding moved the deadline %d -> %d", first, rd.deadline)
	}
	for start := time.Now(); time.Since(start) < 3*readNs*time.Nanosecond; {
	}
	start := time.Now()
	rd.Resume()
	rd.ReadNoCopy(r, 4096, 1)
	rd.Wait()
	if elapsed := time.Since(start); elapsed < readNs {
		t.Fatalf("a read issued after a lapsed round's resume returned after %v, before its %d ns stall", elapsed, readNs)
	}
}

// BenchmarkCold prices a store's record access without the store, at a
// random offset of a 64 MiB region under Optane latency. Read is a Get's
// read: a 213-byte ReadNoCopy, then a touch of the flags byte, the first
// one readRecord parses. Write is a Put's write: a 13-byte header gathered
// with a 200-byte value. host-ns/op is what the access costs beyond the
// stall it is billed (ns/op − stall/op): spin's clock reads, the write's
// copy, and whatever part of the host's cache and TLB misses on the
// backing bytes the stall did not already cover (no prefetch overlaps
// them on the write side).
func BenchmarkCold(b *testing.B) {
	const size, hdr, val = 64 << 20, 13, 200
	r := NewRegion(size, Optane())
	for i := range r.data {
		r.data[i] = byte(i) // back every page with its own memory
	}
	head, tail := make([]byte, hdr), make([]byte, val)
	var sink byte
	run := func(b *testing.B, stallNs func(AccessStats) int64, access func(off uint64)) {
		x := uint64(0x9E3779B97F4A7C15)
		before := r.AccessStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			access(x % (size - hdr - val))
		}
		b.StopTimer()
		stall := stallNs(r.AccessStats()) - stallNs(before)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds()-stall)/float64(b.N), "host-ns/op")
	}
	b.Run("Read", func(b *testing.B) {
		run(b, func(s AccessStats) int64 { return s.ReadStallNs }, func(off uint64) {
			sink += r.ReadNoCopy(int64(off), hdr+val)[12]
		})
	})
	b.Run("Write", func(b *testing.B) {
		run(b, func(s AccessStats) int64 { return s.WriteStallNs }, func(off uint64) {
			r.WriteGather(int64(off), head, tail)
		})
	})
	coldReadSink = sink
}

var coldReadSink byte

// BenchmarkSpinOvershoot reports what a stall costs beyond the
// nanoseconds asked: AccessStats counts stall asked, the wall clock pays
// asked + overshoot. The ask=… cases time the bare wait of a lone access
// (issue clock plus spinUntil). The access=… cases time 16 ReadNoCopy
// calls on 16 distinct blocks under a 170 ns model — lone, each waiting
// for its own stall, or as one Round with one wait — and report the
// overshoot per access, the simulator's own work included.
func BenchmarkSpinOvershoot(b *testing.B) {
	for _, ask := range []int64{90, 170, 340} {
		b.Run(fmt.Sprintf("ask=%dns", ask), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spinUntil(clock() + ask)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)-float64(ask), "overshoot-ns/op")
		})
	}
	const accesses, ask = 16, 170
	r := NewRegion(accesses*blockSize, LatencyModel{ReadNs: ask})
	var sink byte
	for _, round := range []bool{false, true} {
		name := "access=lone"
		if round {
			name = "access=round16"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var rd Round
				for a := int64(0); a < accesses; a++ {
					if round {
						sink += rd.ReadNoCopy(r, a*blockSize, 1)[0]
					} else {
						sink += r.ReadNoCopy(a*blockSize, 1)[0]
					}
				}
				rd.Wait()
			}
			perAccess := float64(b.Elapsed().Nanoseconds()) / float64(b.N*accesses)
			b.ReportMetric(perAccess-ask, "overshoot-ns/access")
		})
	}
	coldReadSink = sink
}

// TestSetLatency: under None() an access still counts its lines but asks
// no stall and leaves the block buffer where it was; once Optane() is
// restored, a block outside the buffer is charged again.
func TestSetLatency(t *testing.T) {
	r := NewRegion(1<<12, Optane())
	r.ReadNoCopy(0, 1) // the block buffer now holds block 0
	r.SetLatency(None())
	before := r.AccessStats()
	r.ReadNoCopy(5*blockSize, 1)
	r.Write(6*blockSize, []byte{1})
	want := before
	want.Reads++
	want.LineReads++
	want.Writes++
	want.LineWrites++
	if got := r.AccessStats(); got != want {
		t.Fatalf("under None() charged %+v, want %+v", got, want)
	}
	r.SetLatency(Optane())
	r.ReadNoCopy(8, 1) // block 0 is still buffered: counted, not stalled
	r.ReadNoCopy(5*blockSize, 1)
	r.Write(7*blockSize, []byte{1})
	want.Reads += 2
	want.LineReads += 2
	want.Writes++
	want.LineWrites++
	want.ReadStallNs += Optane().ReadNs
	want.WriteStallNs += Optane().WriteNs
	if got := r.AccessStats(); got != want {
		t.Fatalf("after Optane() restored charged %+v, want %+v", got, want)
	}
}

// TestConcurrentDisjointAccess pins down the documented concurrency
// contract: concurrent Write/ReadNoCopy/Read on non-overlapping ranges,
// interleaved with Alloc and counter reads, must be race-free (run under
// -race in CI). This is the property the store's parallel recovery,
// compaction and bulk-load paths rely on.
func TestConcurrentDisjointAccess(t *testing.T) {
	r := NewRegion(1<<20, Optane())
	const workers = 8
	const slot = 4096
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w * slot)
			buf := make([]byte, 64)
			for i := 0; i < 200; i++ {
				buf[0] = byte(w)
				r.Write(base, buf)
				r.Flush(base, len(buf))
				got := r.ReadNoCopy(base, 64)
				if got[0] != byte(w) {
					t.Errorf("worker %d read back %d", w, got[0])
					return
				}
				r.Read(base+128, buf)
				if _, err := r.Alloc(32); err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	reads, writes, flushes := r.Stats()
	if reads == 0 || writes == 0 || flushes == 0 {
		t.Fatalf("counters not advancing: %d %d %d", reads, writes, flushes)
	}
}

// TestWriteGatherMatchesWrite: a gather write is one device write that
// charges the lines and stall of, and leaves the same bytes as, a single
// Write of the concatenation — including the block-buffer hit when
// consecutive writes stay inside one block.
func TestWriteGatherMatchesWrite(t *testing.T) {
	lat := LatencyModel{ReadNs: 3, WriteNs: 7}
	whole := NewRegion(1<<12, lat)
	gather := NewRegion(1<<12, lat)
	payload := make([]byte, 700)
	for i := range payload {
		payload[i] = byte(i*7 + 1)
	}
	cases := []struct {
		off        int64
		head, tail int
		lines      int64
		hit        bool // stays in the block the previous write ended in
	}{
		{0, 13, 200, 1, false},
		{250, 13, 200, 2, false},  // header straddles a boundary
		{470, 13, 0, 1, true},     // tombstone shape: empty tail
		{483, 0, 5, 1, true},      // empty head
		{490, 13, 600, 4, false},  // several blocks, the first one buffered: all paid
		{1300, 13, 200, 1, false}, // a fresh block
		{1500, 4, 4, 1, true},
		{2048, 4, 4, 1, false},
	}
	for _, c := range cases {
		before := gather.AccessStats()
		whole.Write(c.off, payload[:c.head+c.tail])
		gather.WriteGather(c.off, payload[:c.head], payload[c.head:c.head+c.tail])
		got := gather.AccessStats()
		want := before
		want.Writes++
		want.LineWrites += c.lines
		if !c.hit {
			want.WriteStallNs += c.lines * lat.WriteNs
		}
		if got != want {
			t.Fatalf("off %d head %d tail %d: charged %+v, want %+v", c.off, c.head, c.tail, got, want)
		}
		if w := whole.AccessStats(); w != got {
			t.Fatalf("off %d: Write charged %+v, WriteGather %+v", c.off, w, got)
		}
	}
	if !bytes.Equal(whole.Snapshot(), gather.Snapshot()) {
		t.Fatal("gather writes left different bytes than contiguous writes")
	}
}
