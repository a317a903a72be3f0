package stats

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 1000; i++ {
		h.Record(i)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Max() != 1000 {
		t.Fatalf("Max = %d", h.Max())
	}
	// 1.5% bucket resolution: allow 5% slack.
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 500}, {90, 900}, {99, 990}, {99.9, 999}} {
		got := h.Percentile(c.p)
		if got < c.want*90/100 || got > c.want*110/100 {
			t.Errorf("p%.1f = %d, want ~%d", c.p, got, c.want)
		}
	}
}

func TestHistogramMeanAndBounds(t *testing.T) {
	h := NewHistogram()
	h.Record(10)
	h.Record(20)
	h.Record(30)
	if m := h.Mean(); m != 20 {
		t.Fatalf("Mean = %f", m)
	}
	if p := h.Percentile(100); p > 30 {
		t.Fatalf("p100 %d exceeds max", p)
	}
	if p := h.Percentile(0); p < 0 {
		t.Fatalf("p0 %d negative", p)
	}
}

func TestBucketRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		if v < 0 {
			v = -v
		}
		idx := bucketIndex(v)
		back := bucketValue(idx)
		if v < (1 << subBucketBits) {
			return back == v
		}
		// Relative error within one sub-bucket step.
		diff := back - v
		if diff < 0 {
			diff = -diff
		}
		return float64(diff) <= float64(v)/float64(1<<(subBucketBits-1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 10000; i++ {
				h.Record(int64(rng.Intn(100000)))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 80000 {
		t.Fatalf("Count = %d", h.Count())
	}
}

func TestMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Record(100)
	b.Record(10000)
	a.Merge(b)
	if a.Count() != 2 || a.Max() != 10000 {
		t.Fatalf("merge: count %d max %d", a.Count(), a.Max())
	}
}

func TestSummarize(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Record(1000)
	}
	s := Summarize("test", h, time.Millisecond)
	if s.Ops != 1000 {
		t.Fatalf("Ops = %d", s.Ops)
	}
	if s.ThroughputOpsPerSec < 0.9e6 || s.ThroughputOpsPerSec > 1.1e6 {
		t.Fatalf("throughput %f", s.ThroughputOpsPerSec)
	}
	if !strings.Contains(s.String(), "test") {
		t.Fatal("String() missing name")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Fig X", "index", "Mops/s", "p99.9(us)")
	tb.AddRow("alex", 3.14159, 12.0)
	tb.AddRow("btree", 1.0, 99.5)
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Fig X", "index", "alex", "btree", "3.14"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d", len(lines))
	}
}
