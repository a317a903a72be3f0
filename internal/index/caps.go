package index

// Caps is the consolidated capability descriptor of an index: one struct
// answering every "can this index ...?" question the store, the sharding
// wrapper, the benchmark harness and the telemetry layer used to ask
// through separate type assertions. Obtain it with CapsOf.
//
// A true field means the corresponding operation actually works on this
// instance — not merely that a method with the right name exists. Wrapper
// indexes whose support depends on their inner index (sharded) implement
// Capser to mask capabilities their current composition cannot honour.
type Caps struct {
	// Bulk: BulkLoad from sorted distinct keys is supported.
	Bulk bool
	// Range: ordered scans work, through streaming cursors (Ranger). A
	// wrapper whose Range method exists but cannot be honoured by its
	// current composition (the sharded wrapper over a hash index) masks
	// this through Capser.
	Range bool
	// RangeDesc: descending cursors (ReverseRanger) work.
	RangeDesc bool
	// Delete: keys can be removed.
	Delete bool
	// Upsert: InsertReplace reports prior existence atomically. Every
	// Index has it.
	Upsert bool
	// BatchGet: GetBatch resolves whole lookup batches with interleaved
	// last-mile searches.
	BatchGet bool
	// Sized: the footprint breakdown of Table III is available.
	Sized bool
	// Depth: the average root->leaf depth of Table II is available.
	Depth bool
	// Retrain: retraining counters (Fig 18) are available.
	Retrain bool
	// AsyncRetrain: retraining can run on a background pool
	// (SetRetrainPool / DrainRetrains).
	AsyncRetrain bool
	// ConcurrentReads: concurrent Gets are safe.
	ConcurrentReads bool
	// ConcurrentWrites: concurrent Inserts (and Gets) are safe.
	ConcurrentWrites bool
}

// Capser is implemented by indexes that know their capabilities better
// than interface probing can tell — typically wrappers whose support
// depends on the wrapped index. CapsOf consults it first.
type Capser interface {
	Caps() Caps
}

// CapsOf returns the capability descriptor for idx. Indexes implementing
// Capser answer directly; for everything else the descriptor is derived
// from the optional interfaces (the implementation seam).
func CapsOf(idx Index) Caps {
	if c, ok := idx.(Capser); ok {
		return c.Caps()
	}
	var caps Caps
	_, caps.Bulk = idx.(Bulk)
	_, caps.Range = idx.(Ranger)
	_, caps.RangeDesc = idx.(ReverseRanger)
	_, caps.Delete = idx.(Deleter)
	caps.Upsert = true
	_, caps.BatchGet = idx.(BatchGetter)
	_, caps.Sized = idx.(Sized)
	_, caps.Depth = idx.(DepthReporter)
	_, caps.Retrain = idx.(RetrainReporter)
	_, caps.AsyncRetrain = idx.(AsyncRetrainer)
	if r, ok := idx.(ConcurrentReads); ok {
		caps.ConcurrentReads = r.ConcurrentReads()
	}
	if w, ok := idx.(ConcurrentWrites); ok {
		caps.ConcurrentWrites = w.ConcurrentWrites()
	}
	return caps
}

// SizesOf returns the footprint breakdown when available.
func SizesOf(idx Index) (Sizes, bool) {
	if s, ok := idx.(Sized); ok {
		return s.Sizes(), true
	}
	return Sizes{}, false
}

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
