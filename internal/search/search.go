// Package search is the shared last-mile search kernel: the step every
// learned index performs after its model predicts an approximate
// position — locating the key inside the residual error window. SOSD
// and Marcus et al.'s "Benchmarking Learned Indexes" both show this
// step dominating lookup cost once models are cheap, so the kernels
// here are written for the hardware rather than for the textbook:
//
//   - lowerBranchless is the cmov-style bounded binary search: the loop
//     body is a single conditional add, which the compiler lowers to a
//     conditional move, so the branch predictor never sees the
//     data-dependent comparison that makes classic binary search stall.
//   - lowerLinear handles windows at or under linearCutoff, where a
//     straight-line scan beats any halving scheme (no mispredicted exit
//     until the answer, hardware prefetch fully engaged).
//   - lowerInterpolated probes once at the linearly interpolated
//     position, then walks sequentially; segments produced by PLA
//     training are near-linear by construction, so the first probe
//     usually lands within a few slots of the answer. A guard bounds
//     the walk and falls back to the branchless kernel on hostile data.
//   - Batch (batch.go) interleaves up to MaxLanes independent searches
//     in lockstep rounds so their cache misses overlap.
//
// All kernels are allocation-free and annotated //pieces:hotpath; the
// pieceslint hotpath analyzer enforces that discipline. Every kernel is
// verified against a sort.Search oracle by fuzz and property tests.
//
// The exported entry points take an explicit [lo, hi) window (clamped
// to the slice), because the window — model prediction ± error bound —
// is the part the learned index already paid for.
package search

import "sync/atomic"

// Policy selects which kernel family the exported entry points
// dispatch to. It exists for experiments (libench -searchkernel): the
// paper's approximation-algorithm dimension asks how the last-mile
// strategy interacts with the index's error bounds, and a process-wide
// switch lets one binary answer that without rebuilding indexes.
type Policy uint8

const (
	// PolicyAuto picks per call: linear scan at or under linearCutoff
	// elements, branchless binary above. The default.
	PolicyAuto Policy = iota
	// PolicyBinary is classic branchy binary search — the baseline the
	// other kernels are measured against.
	PolicyBinary
	// PolicyBranchless always uses the cmov-style kernel.
	PolicyBranchless
	// PolicyInterp interpolates then scans, with a guarded fallback.
	PolicyInterp
)

// policyNames is indexed by Policy.
var policyNames = [...]string{"auto", "binary", "branchless", "interp"}

// String returns the flag-spelling of the policy ("auto", "binary",
// "branchless", "interp").
func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return "auto"
}

// ParsePolicy maps a flag value to a Policy. ok is false for unknown
// spellings.
func ParsePolicy(s string) (Policy, bool) {
	for i, n := range policyNames {
		if s == n {
			return Policy(i), true
		}
	}
	return PolicyAuto, false
}

// policy is the process-wide kernel selection. Both sides go through
// atomics so SetPolicy is safe while searches run. A search reads it
// exactly once per entry point — one relaxed-cost atomic load,
// invisible next to the probe loop it gates.
var policy atomic.Uint32

// SetPolicy installs the process-wide kernel selection. Safe to call at
// any time, including while concurrent searches run: in-flight calls
// finish on the kernel they already chose, later calls see the new one.
func SetPolicy(p Policy) { policy.Store(uint32(p)) }

// CurrentPolicy reports the process-wide kernel selection.
func CurrentPolicy() Policy { return Policy(policy.Load()) }

const (
	// linearCutoff is the window width at or below which PolicyAuto
	// scans instead of halving: at 24 slots (three cache lines of
	// uint64) the scan's predictable exit beats ~5 dependent halving
	// steps on every microarchitecture we measured.
	linearCutoff = 24
	// interpGuard bounds the sequential walk after the interpolation
	// probe before falling back to the branchless kernel, so hostile
	// (non-linear) windows degrade to O(log n) instead of O(n).
	interpGuard = 16
)

// clamp narrows [lo, hi) to a valid window of keys.
//
//pieces:hotpath
func clamp(lo, hi, n int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// LowerBound returns the first index i in [lo, hi) with keys[i] >= key,
// or hi when no such index exists. The window is clamped to the slice;
// keys must be sorted ascending within it. Which kernel answers is
// governed by the process-wide Policy.
//
//pieces:hotpath
func LowerBound(keys []uint64, key uint64, lo, hi int) int {
	lo, hi = clamp(lo, hi, len(keys))
	var (
		i      int
		probes int32
		k      Kernel
	)
	switch Policy(policy.Load()) {
	case PolicyBinary:
		i, probes = lowerClassic(keys, key, lo, hi)
		k = KernelBinary
	case PolicyBranchless:
		i, probes = lowerBranchless(keys, key, lo, hi)
		k = KernelBranchless
	case PolicyInterp:
		i, probes = lowerInterpolated(keys, key, lo, hi)
		k = KernelInterp
	default:
		if hi-lo <= linearCutoff {
			i, probes = lowerLinear(keys, key, lo, hi)
			k = KernelLinear
		} else {
			i, probes = lowerBranchless(keys, key, lo, hi)
			k = KernelBranchless
		}
	}
	note(k, 1, probes)
	return i
}

// UpperBound returns the first index i in [lo, hi) with keys[i] > key,
// or hi when no such index exists. Implemented as the lower bound of
// key+1 — exact for uint64 keys — so every kernel serves both bounds.
//
//pieces:hotpath
func UpperBound(keys []uint64, key uint64, lo, hi int) int {
	if key == ^uint64(0) {
		_, hi = clamp(lo, hi, len(keys))
		return hi
	}
	return LowerBound(keys, key+1, lo, hi)
}

// Find locates key in the sorted slice: (index, true) when present,
// (insertion point, false) otherwise. Drop-in for the hand-rolled
// sort.Search loops the indexes used to carry.
//
//pieces:hotpath
func Find(keys []uint64, key uint64) (int, bool) {
	return FindBounded(keys, key, 0, len(keys))
}

// FindBounded locates key inside the window [lo, hi) — the model's
// prediction ± error bound. It returns (index, true) when keys[index]
// == key inside the window, else (insertion point, false). A present
// key is found only if the window actually covers its position, which
// is exactly the error-bound contract every learned index maintains.
//
//pieces:hotpath
func FindBounded(keys []uint64, key uint64, lo, hi int) (int, bool) {
	lo, hi = clamp(lo, hi, len(keys))
	i := LowerBound(keys, key, lo, hi)
	return i, i < hi && keys[i] == key
}

// lowerClassic is textbook binary search: the baseline kernel. Each
// step's comparison is a conditional branch on loaded data, so on
// random keys the predictor misses half the time.
//
//pieces:hotpath
func lowerClassic(keys []uint64, key uint64, lo, hi int) (int, int32) {
	var probes int32
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		probes++
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, probes
}

// lowerBranchless halves a length instead of moving two bounds: the
// loop body is one comparison feeding one conditional add, which the
// compiler emits as CMOVQ — no data-dependent branch, so the pipeline
// never flushes on a mispredict. Invariant: the answer lies in
// [base, base+n].
//
//pieces:hotpath
func lowerBranchless(keys []uint64, key uint64, lo, hi int) (int, int32) {
	base, n := lo, hi-lo
	var probes int32
	for n > 1 {
		half := n >> 1
		probes++
		if keys[base+half-1] < key {
			base += half
		}
		n -= half
	}
	if n == 1 {
		probes++
		if keys[base] < key {
			base++
		}
	}
	return base, probes
}

// lowerLinear scans the window front to back. For windows within a few
// cache lines this is the fastest kernel: the exit branch is the only
// unpredictable one and the hardware prefetcher covers the loads.
//
//pieces:hotpath
func lowerLinear(keys []uint64, key uint64, lo, hi int) (int, int32) {
	var probes int32
	for i := lo; i < hi; i++ {
		probes++
		if keys[i] >= key {
			return i, probes
		}
	}
	return hi, probes
}

// lowerInterpolated probes once at the position linear interpolation
// between the window endpoints predicts, then walks sequentially toward
// the answer. PLA-trained segments are near-linear by construction
// (that is what the training error bound means), so the walk is
// typically 0–2 slots. interpGuard bounds it; past the guard the
// remaining subwindow goes to the branchless kernel, keeping the worst
// case logarithmic.
//
//pieces:hotpath
func lowerInterpolated(keys []uint64, key uint64, lo, hi int) (int, int32) {
	if hi-lo <= linearCutoff {
		return lowerLinear(keys, key, lo, hi)
	}
	left, right := lo, hi-1
	if keys[left] >= key {
		return left, 1
	}
	if keys[right] < key {
		return hi, 2
	}
	// keys[left] < key <= keys[right]: the answer is in (left, right].
	probes := int32(2)
	span := keys[right] - keys[left]
	p := left + 1
	if span > 0 {
		p = left + int(float64(key-keys[left])/float64(span)*float64(right-left))
		if p <= left {
			p = left + 1
		}
		if p > right {
			p = right
		}
	}
	probes++
	if keys[p] >= key {
		// Answer is at or left of p; keys[left] < key stops the walk.
		for g := 0; g < interpGuard; g++ {
			probes++
			if keys[p-1] < key {
				return p, probes
			}
			p--
		}
		i, bp := lowerBranchless(keys, key, left+1, p)
		return i, probes + bp
	}
	// Answer is right of p; keys[right] >= key stops the walk.
	for g := 0; g < interpGuard; g++ {
		probes++
		if keys[p+1] >= key {
			return p + 1, probes
		}
		p++
	}
	i, bp := lowerBranchless(keys, key, p+1, right+1)
	return i, probes + bp
}
