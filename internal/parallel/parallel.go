// Package parallel provides the chunked fan-out helper shared by every
// bulk path in the repository: page scans and record copies in the Viper
// store and model training in the learned indexes. The paper's bulk
// experiments (recovery in Fig 16) run on a many-core machine; these
// helpers are how the Go reproduction puts those cores to work.
//
// The worker count defaults to GOMAXPROCS and can be overridden globally
// with SetWorkers — the knob the benchmarks use to compare the serial
// path (SetWorkers(1)) against the parallel one, and the property tests
// use to force fan-out even on single-core machines. Small inputs fall
// back to running inline on the calling goroutine, so callers can invoke
// For unconditionally without paying goroutine overhead on tiny data.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workerOverride, when positive, replaces GOMAXPROCS as the default
// fan-out width. It may exceed GOMAXPROCS (useful to exercise concurrent
// merge logic under -race on machines with few cores).
var workerOverride atomic.Int32

// SetWorkers overrides the default worker count for all parallel bulk
// paths. n <= 0 restores the default (GOMAXPROCS). It returns the
// previous override so tests can restore it.
func SetWorkers(n int) (prev int) {
	if n < 0 {
		n = 0
	}
	return int(workerOverride.Swap(int32(n)))
}

// Workers returns the fan-out width for a job that splits into at most
// tasks units of worthwhile work: the override (or GOMAXPROCS) capped by
// tasks, and at least 1. Callers typically pass n/minPerWorker so small
// inputs degrade to a single inline worker.
func Workers(tasks int) int {
	w := int(workerOverride.Load())
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if tasks < w {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// For splits [0, n) into one contiguous chunk per worker and runs
// body(worker, start, end) concurrently. worker is the chunk ordinal
// (chunks are ordered: chunk w covers positions before chunk w+1), so
// callers can write into per-worker slots and merge results in chunk
// order. With workers <= 1 the body runs inline on the caller.
func For(workers, n int, body func(worker, start, end int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		body(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			body(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// ForErr is For with error collection: all chunks run to completion and
// the error of the lowest-numbered failing chunk is returned, so the
// outcome is deterministic regardless of goroutine scheduling.
func ForErr(workers, n int, body func(worker, start, end int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return body(0, 0, n)
	}
	errs := make([]error, workers)
	For(workers, n, func(w, lo, hi int) {
		errs[w] = body(w, lo, hi)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
