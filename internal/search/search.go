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
//     LowerBound prefetches its window's lines before the probes, so
//     their cache misses overlap instead of following each other.
//   - lowerLinear handles windows at or under linearCutoff, where a
//     straight-line scan beats any halving scheme (no mispredicted exit
//     until the answer, hardware prefetch fully engaged).
//   - Batch (batch.go) interleaves up to MaxLanes independent searches
//     in lockstep rounds so their cache misses overlap.
//
// LowerBound picks between the first two by window width alone, so the
// model's error bound decides the kernel.
//
// All kernels are allocation-free and annotated //pieces:hotpath; the
// pieceslint hotpath analyzer enforces that discipline. Every kernel is
// verified against a sort.Search oracle by fuzz and property tests.
//
// The exported entry points take an explicit [lo, hi) window (clamped
// to the slice), because the window — model prediction ± error bound —
// is the part the learned index already paid for.
package search

import "learnedpieces/internal/prefetch"

// linearCutoff is the window width at or below which LowerBound scans
// instead of halving: at 24 slots (three cache lines of uint64) the
// scan's predictable exit beats ~5 dependent halving steps on every
// microarchitecture we measured.
const linearCutoff = 24

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
// keys must be sorted ascending within it. Windows of at most
// linearCutoff slots are scanned, wider ones halved branchlessly. A
// halving probe's address depends on the previous probe's answer, so
// once the window spans at most MaxLanes cache lines (the misses a core
// keeps in flight; a btree node's window and pgm's leaf window from the
// start) it is prefetched whole: its misses overlap instead of following
// each other, and the remaining probes hit the cache. A wider window is
// halved to that span first, so a search never prefetches more than
// MaxLanes lines.
//
//pieces:hotpath
func LowerBound(keys []uint64, key uint64, lo, hi int) int {
	lo, hi = clamp(lo, hi, len(keys))
	if hi-lo <= linearCutoff {
		i, probes := lowerLinear(keys, key, lo, hi)
		note(KernelLinear, 1, probes)
		return i
	}
	base, n, wide := halve(keys, key, lo, hi-lo, MaxLanes*8) // eight keys a line
	prefetch.Slice(keys[base : base+n])
	i, probes := lowerBranchless(keys, key, base, base+n)
	note(KernelBranchless, 1, wide+probes)
	return i
}

// UpperBound returns the first index i in [lo, hi) with keys[i] > key,
// or hi when no such index exists. Implemented as the lower bound of
// key+1 — exact for uint64 keys — so one rule serves both bounds.
//
//pieces:hotpath
func UpperBound(keys []uint64, key uint64, lo, hi int) int {
	if key == ^uint64(0) {
		_, hi = clamp(lo, hi, len(keys))
		return hi
	}
	return LowerBound(keys, key+1, lo, hi)
}

// Floor returns the index of the greatest key <= key, or 0 when key
// precedes every key (and for an empty slice). The window [lo, hi) is
// only a hint — a structure's predicted position ± its error — searched
// first and then walked outward, so a window that missed the answer
// costs steps, never correctness.
//
//pieces:hotpath
func Floor(keys []uint64, key uint64, lo, hi int) int {
	j := UpperBound(keys, key, lo, hi)
	for j < len(keys) && keys[j] <= key {
		j++
	}
	for j > 0 && keys[j-1] > key {
		j--
	}
	return max(j-1, 0)
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

// lowerBranchless halves a length instead of moving two bounds: the
// loop body is one comparison feeding one conditional add, which the
// compiler emits as CMOVQ — no data-dependent branch, so the pipeline
// never flushes on a mispredict. Invariant: the answer lies in
// [base, base+n].
//
//pieces:hotpath
func lowerBranchless(keys []uint64, key uint64, lo, hi int) (int, int32) {
	base, n, probes := halve(keys, key, lo, hi-lo, 1)
	if n == 1 {
		probes++
		if keys[base] < key {
			base++
		}
	}
	return base, probes
}

// halve runs lowerBranchless's halving steps on the window of n slots at
// base until it holds at most stop slots (stop >= 1), and returns the
// narrowed window and the probes it took.
//
//pieces:hotpath
func halve(keys []uint64, key uint64, base, n, stop int) (int, int, int32) {
	var probes int32
	for n > stop {
		half := n >> 1
		probes++
		if keys[base+half-1] < key {
			base += half
		}
		n -= half
	}
	return base, n, probes
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
