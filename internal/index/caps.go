package index

// Caps is the consolidated capability descriptor of an index: one struct
// answering every "can this index ...?" question the store, the sharding
// wrapper, the benchmark harness and the telemetry layer used to ask
// through separate type assertions. Obtain it with CapsOf. It lists only
// what varies between indexes; what every index does is in Index.
//
// A true field means the corresponding operation actually works on this
// instance — not merely that a method with the right name exists. Wrapper
// indexes whose support depends on their inner index (sharded) implement
// Capser to mask capabilities their current composition cannot honour.
type Caps struct {
	// Range: ordered scans work, through streaming cursors (Ranger). A
	// wrapper whose Range method exists but cannot be honoured by its
	// current composition (the sharded wrapper over a hash index) masks
	// this through Capser.
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
	_, caps.Range = idx.(Ranger)
	_, caps.Delete = idx.(Deleter)
	_, caps.BatchGet = idx.(BatchGetter)
	_, caps.Depth = idx.(DepthReporter)
	_, caps.Retrain = idx.(RetrainReporter)
	_, caps.AsyncRetrain = idx.(AsyncRetrainer)
	if w, ok := idx.(ConcurrentWrites); ok {
		caps.ConcurrentWrites = w.ConcurrentWrites()
	}
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
