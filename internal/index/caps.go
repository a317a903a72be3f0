package index

// Caps is the consolidated capability descriptor of an index: one struct
// answering every "can this index ...?" question the store, the
// benchmarks and the telemetry layer used to ask through separate type
// assertions. Obtain it with CapsOf. It lists only what varies between
// indexes; what every index does is in Index.
type Caps struct {
	// Range: ordered scans work, through streaming cursors (Ranger).
	Range bool
	// Delete: keys can be removed.
	Delete bool
	// BatchGet: GetBatch resolves whole lookup batches with interleaved
	// last-mile searches.
	BatchGet bool
	// Depth: the average root->leaf depth of Table II is available.
	Depth bool
	// Retrain: retraining counters (Fig 18) are available.
	Retrain bool
	// AsyncRetrain: retraining can run on a background pool
	// (SetRetrainPool / DrainRetrains).
	AsyncRetrain bool
	// ConcurrentWrites: concurrent Inserts (and Gets) are safe.
	ConcurrentWrites bool
	// ReadOnly: every write is refused with ErrReadOnly.
	ReadOnly bool
}

// CapsOf returns the capability descriptor for idx, derived from the
// optional interfaces it implements (the implementation seam).
func CapsOf(idx Index) Caps {
	var caps Caps
	_, caps.Range = idx.(Ranger)
	_, caps.Delete = idx.(Deleter)
	_, caps.BatchGet = idx.(BatchGetter)
	_, caps.Depth = idx.(DepthReporter)
	_, caps.Retrain = idx.(RetrainReporter)
	_, caps.AsyncRetrain = idx.(AsyncRetrainer)
	if w, ok := idx.(ConcurrentWrites); ok {
		caps.ConcurrentWrites = w.ConcurrentWrites()
	}
	_, caps.ReadOnly = idx.(interface{ ReadOnly() })
	return caps
}

// SizesOf is idx.Sizes with ok always true, kept because the benchmark
// module calls it.
func SizesOf(idx Index) (Sizes, bool) { return idx.Sizes(), true }

// DepthOf returns the average depth when available.
func DepthOf(idx Index) (float64, bool) {
	if d, ok := idx.(DepthReporter); ok {
		return d.AvgDepth(), true
	}
	return 0, false
}

// RetrainStatsOf returns the retraining counters when available.
func RetrainStatsOf(idx Index) (count, totalNs int64, ok bool) {
	if r, ok := idx.(RetrainReporter); ok {
		count, totalNs = r.RetrainStats()
		return count, totalNs, true
	}
	return 0, 0, false
}
