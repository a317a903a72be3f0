// Package stats provides the measurement plumbing for the benchmark
// harness: an HDR-style latency histogram with cheap lock-free recording,
// throughput meters and a plain-text table renderer for result rows.
package stats

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// subBucketBits controls histogram resolution: each power-of-two range is
// split into 2^subBucketBits linear sub-buckets (~1.5% relative error).
const subBucketBits = 6

const numBuckets = 64 * (1 << subBucketBits)

// Histogram records int64 values (typically latencies in nanoseconds) into
// logarithmic buckets. Recording is atomic, so one Histogram may be shared
// by concurrent workers; reading while writers are active yields a
// consistent-enough snapshot for reporting.
type Histogram struct {
	counts [numBuckets]atomic.Int64
	total  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < (1 << subBucketBits) {
		return int(u)
	}
	exp := 63 - bits.LeadingZeros64(u)
	shift := exp - subBucketBits
	sub := int((u >> uint(shift)) & ((1 << subBucketBits) - 1))
	return (exp-subBucketBits+1)<<subBucketBits + sub
}

func bucketValue(idx int) int64 {
	if idx < (1 << subBucketBits) {
		return int64(idx)
	}
	blk := idx >> subBucketBits
	sub := idx & ((1 << subBucketBits) - 1)
	exp := blk + subBucketBits - 1
	base := uint64(1) << uint(exp)
	step := base >> subBucketBits
	return int64(base + uint64(sub)*step + step/2)
}

// Record adds one observation.
func (h *Histogram) Record(v int64) {
	h.counts[bucketIndex(v)].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// RecordSince records the elapsed time since start, in nanoseconds.
func (h *Histogram) RecordSince(start time.Time) {
	h.Record(time.Since(start).Nanoseconds())
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Mean returns the arithmetic mean of the recorded values.
func (h *Histogram) Mean() float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Max returns the largest recorded value.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Percentile returns the value at percentile p in [0,100].
func (h *Histogram) Percentile(p float64) int64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < numBuckets; i++ {
		seen += h.counts[i].Load()
		if seen >= rank {
			v := bucketValue(i)
			if m := h.max.Load(); v > m {
				return m
			}
			return v
		}
	}
	return h.max.Load()
}

// Merge adds all observations from other into h.
func (h *Histogram) Merge(other *Histogram) {
	for i := 0; i < numBuckets; i++ {
		if c := other.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.total.Add(other.total.Load())
	h.sum.Add(other.sum.Load())
	for {
		cur := h.max.Load()
		o := other.max.Load()
		if o <= cur || h.max.CompareAndSwap(cur, o) {
			break
		}
	}
}

// Summary is a compact, printable digest of a measurement run.
type Summary struct {
	Name                string
	Ops                 int64
	Elapsed             time.Duration
	MeanNs              float64
	P50Ns               int64
	P99Ns               int64
	P999Ns              int64
	MaxNs               int64
	ThroughputOpsPerSec float64
}

// Summarize computes a Summary from a histogram and a wall-clock duration.
func Summarize(name string, h *Histogram, elapsed time.Duration) Summary {
	s := Summary{
		Name:    name,
		Ops:     h.Count(),
		Elapsed: elapsed,
		MeanNs:  h.Mean(),
		P50Ns:   h.Percentile(50),
		P99Ns:   h.Percentile(99),
		P999Ns:  h.Percentile(99.9),
		MaxNs:   h.Max(),
	}
	if elapsed > 0 {
		s.ThroughputOpsPerSec = float64(s.Ops) / elapsed.Seconds()
	}
	return s
}

// String renders the summary on one line, in the units the paper plots
// (Mops/s throughput, µs tail latency).
func (s Summary) String() string {
	return fmt.Sprintf("%-22s %10.3f Mops/s  mean %8.0fns  p50 %7dns  p99 %8dns  p99.9 %8dns  max %9dns",
		s.Name, s.ThroughputOpsPerSec/1e6, s.MeanNs, s.P50Ns, s.P99Ns, s.P999Ns, s.MaxNs)
}

// Table accumulates rows of labelled values and renders them aligned. The
// bench harness uses it to print each figure/table in the paper's layout.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case time.Duration:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, hdr := range t.Headers {
		widths[i] = len(hdr)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
