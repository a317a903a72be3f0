package search

import "sync/atomic"

// Kernel identifies which kernel answered a search, for the per-kernel
// probe accounting EXPERIMENTS uses to attribute last-mile cost.
type Kernel uint8

const (
	// KernelLinear is the small-window sequential scan.
	KernelLinear Kernel = iota
	// KernelBranchless is the cmov-style halving kernel.
	KernelBranchless
	// KernelBatch is the interleaved lockstep kernel.
	KernelBatch
	numKernels int = iota
)

// kernelNames is indexed by Kernel.
var kernelNames = [numKernels]string{"linear", "branchless", "batch"}

// String returns the kernel's snapshot name.
func (k Kernel) String() string {
	if int(k) < numKernels {
		return kernelNames[k]
	}
	return "unknown"
}

// kernelStat is one kernel's counters, padded to a cache line so the
// three stats never false-share under concurrent lookups.
type kernelStat struct {
	searches atomic.Int64
	probes   atomic.Int64
	_        [48]byte
}

// statsOn gates all accounting. Off (the default) a search pays one
// atomic load; on it pays two atomic adds. Toggled by telemetry wiring,
// read concurrently by every search — hence atomic rather than a plain
// bool.
var statsOn atomic.Bool

var stats [numKernels]kernelStat

// EnableStats switches per-kernel probe accounting on or off. The
// telemetry layer enables it when a sink is attached, mirroring how the
// device probes are pull-based: the kernels stay free when nobody is
// looking.
func EnableStats(on bool) { statsOn.Store(on) }

// StatsEnabled reports whether accounting is on.
func StatsEnabled() bool { return statsOn.Load() }

// ResetStats zeroes all kernel counters.
func ResetStats() {
	for i := range stats {
		stats[i].searches.Store(0)
		stats[i].probes.Store(0)
	}
}

// KernelStats is the JSON-stable digest of one kernel's work: how many
// searches it answered and how many key slots it probed doing so.
// Probes-per-search is the number EXPERIMENTS compares across kernels.
type KernelStats struct {
	Kernel   string `json:"kernel"`
	Searches int64  `json:"searches"`
	Probes   int64  `json:"probes"`
}

// StatsSnapshot returns the counters of every kernel that has done any
// work, in declaration order. Nil when accounting never ran.
func StatsSnapshot() []KernelStats {
	var out []KernelStats
	for i := range stats {
		s := stats[i].searches.Load()
		p := stats[i].probes.Load()
		if s == 0 && p == 0 {
			continue
		}
		out = append(out, KernelStats{Kernel: Kernel(i).String(), Searches: s, Probes: p})
	}
	return out
}

// note records one kernel invocation covering `searches` lookups and
// `probes` key-slot reads. The disabled path is a single atomic load.
//
//pieces:hotpath
func note(k Kernel, searches int, probes int32) {
	if !statsOn.Load() {
		return
	}
	stats[k].searches.Add(int64(searches))
	stats[k].probes.Add(int64(probes))
}
