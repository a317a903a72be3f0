package index

// Seam is the typed dispatch surface of an index: the optional-interface
// values a store's hot paths call through after resolving them exactly
// once per index swap. Fields are nil when the index lacks the
// capability (Upsert never is: it is part of Index); callers gate on the
// matching Caps field (or a nil check) before dispatching.
//
// Seam exists so the rest of the repository never type-asserts against
// the optional interfaces ad hoc — the caps-discipline analyzer
// (cmd/pieceslint) forbids raw assertions outside this package, which
// keeps Caps the single source of truth about what an index can do.
type Seam struct {
	Upsert       Upserter
	Delete       Deleter
	Range        Ranger
	Batch        BatchGetter
	AsyncRetrain AsyncRetrainer
}

// Seams resolves idx's hot-path dispatch surface. This is the one
// sanctioned resolution site: call it when an index is installed, keep
// the result, and dispatch through its fields.
func Seams(idx Index) Seam {
	var s Seam
	s.Upsert = idx
	s.Delete, _ = idx.(Deleter)
	s.Range, _ = idx.(Ranger)
	s.Batch, _ = idx.(BatchGetter)
	s.AsyncRetrain, _ = idx.(AsyncRetrainer)
	return s
}

// LoadSorted is idx.BulkLoad, kept because the benchmark module calls
// it.
func LoadSorted(idx Index, keys, values []uint64) error { return idx.BulkLoad(keys, values) }
