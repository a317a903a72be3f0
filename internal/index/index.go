// Package index defines the interfaces every ordered (and unordered)
// index in this repository implements, so the KV store, the composer and
// the benchmark harness can treat learned and traditional indexes
// uniformly — the precondition for the paper's "fair environment".
package index

import (
	"errors"

	"learnedpieces/internal/retrain"
)

// ErrReadOnly is returned by Insert on indexes that do not support
// updates (RMI, RadixSpline).
var ErrReadOnly = errors.New("index: read-only index does not support insert")

// Index is the operation set shared by all indexes. Keys and values are
// uint64 (values are typically offsets into the KV store's storage).
// Insert is an upsert: existing keys have their value replaced; it is
// InsertReplace for callers that do not need the existence answer.
// Every index bulk-loads, reports its footprint, and serves Get
// concurrently with other Gets; what varies between indexes is in Caps.
type Index interface {
	Name() string
	Get(key uint64) (uint64, bool)
	Insert(key, value uint64) error
	Upserter
	Bulk
	Sized
	Len() int
}

// Bulk is the build from sorted, distinct keys with parallel values
// (values may be nil for key-only loads): the paper's build/recovery
// path. It is part of Index.
type Bulk interface {
	BulkLoad(keys, values []uint64) error
}

// Cursor streams one index range in key order. Next fills the parallel
// key/value slices (equal length, len >= 1) with the next entries of
// the range and returns how many it produced; 0 means the range is
// exhausted. Close releases the cursor's pooled state — cursors are
// pooled by their index, so a cursor must not be used after Close and
// every opened cursor must be closed exactly once.
//
// Safety contract: single-writer indexes must not be mutated while a
// cursor is open; between writes, cursors may be served from any
// goroutine, re-snapshotting internally between Next calls as needed.
type Cursor interface {
	Next(keys, vals []uint64) int
	Close()
}

// Ranger is implemented by ordered indexes — it is the one way to scan
// an index. Range positions once (via the shared search kernels) at the
// first entry with key >= start, then each Next walks segment/leaf-
// sequentially. The cursor yields raw (key, offset) pairs in bulk so
// the store can reorder the record reads by PMem offset; callers that
// want callback style drive it through Scan.
type Ranger interface {
	Range(start uint64) Cursor
}

// Deleter is implemented by indexes supporting removal. It reports
// whether the key was present.
type Deleter interface {
	Delete(key uint64) bool
}

// BatchGetter is implemented by indexes whose lookup path can resolve a
// batch of independent keys with interleaved last-mile searches
// (internal/search.Batch): predict every key's window first, then
// search all windows in lockstep so the batch's cache misses overlap.
// GetBatch resolves keys[i] into vals[i] and found[i] for every i
// (found[i] is set to false on a miss, so callers need not pre-clear);
// the three slices must have equal length. It must be exactly
// equivalent to len(keys) independent Gets and as safe for concurrent
// use as Get.
type BatchGetter interface {
	GetBatch(keys []uint64, vals []uint64, found []bool)
}

// Upserter is the write every index performs: an insert that reports,
// from the descent it makes anyway, whether the key already existed. The
// KV store keeps its live-key count from that answer, so a Put costs one
// descent, and under concurrent writers the answer is atomic with the
// insert — a separate Get-then-Insert pair races when two writers insert
// the same new key. Read-only indexes return ErrReadOnly. It is part of
// Index; the name remains for the Seam field that dispatches it.
type Upserter interface {
	InsertReplace(key, value uint64) (existed bool, err error)
}

// Sizes is the memory footprint breakdown of Table III.
type Sizes struct {
	Structure int64 // models, inner nodes, directories — excluding key/value storage
	Keys      int64 // key storage owned by the index, including gap slots
	Values    int64 // value storage owned by the index
}

// Total returns the full footprint.
func (s Sizes) Total() int64 { return s.Structure + s.Keys + s.Values }

// Sized is the footprint report. It is part of Index.
type Sized interface {
	Sizes() Sizes
}

// DepthReporter is implemented by tree-shaped indexes; AvgDepth is the
// mean number of internal levels traversed root->leaf (Table II).
type DepthReporter interface {
	AvgDepth() float64
}

// RetrainReporter exposes retraining counters (Fig 18): how many retrain
// (model rebuild / node split / merge) actions ran and their total cost
// in nanoseconds.
type RetrainReporter interface {
	RetrainStats() (count int64, totalNs int64)
}

// AsyncRetrainer is implemented by indexes that can run retraining
// (segment merges, node expands, group compaction, full rebuilds) on a
// background pool instead of the inserting goroutine.
//
// SetRetrainPool attaches the pool; it must be called before the index
// serves concurrent operations (typically right after construction or
// recovery). A nil pool restores plain inline retraining. DrainRetrains
// blocks until every retrain visible to the caller has been applied:
// pending background work has finished AND — for indexes with a
// single-writer contract — its results have been installed, so a
// subsequent Get observes the retrained structure. Like writes, it must
// be called from the writer's timeline on single-writer indexes.
type AsyncRetrainer interface {
	SetRetrainPool(p *retrain.Pool)
	DrainRetrains()
}

// ConcurrentWrites marks indexes whose Insert is safe to call
// concurrently with other Inserts and Gets (only XIndex in the paper).
type ConcurrentWrites interface {
	ConcurrentWrites() bool
}
