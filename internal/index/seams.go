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
	RangeDesc    ReverseRanger
	Bulk         Bulk
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
	s.RangeDesc, _ = idx.(ReverseRanger)
	s.Bulk, _ = idx.(Bulk)
	s.Batch, _ = idx.(BatchGetter)
	s.AsyncRetrain, _ = idx.(AsyncRetrainer)
	return s
}

// LoadSorted installs sorted distinct keys (with parallel values; values
// may be nil for key-only loads) into idx through its bulk path when it
// has one, falling back to one insert per key. It is the capability-safe
// replacement for the idx.(Bulk).BulkLoad(...) pattern in build and
// recovery paths.
func LoadSorted(idx Index, keys, values []uint64) error {
	if s := Seams(idx); s.Bulk != nil {
		return s.Bulk.BulkLoad(keys, values)
	}
	for i, k := range keys {
		var v uint64
		if values != nil {
			v = values[i]
		}
		if err := idx.Insert(k, v); err != nil {
			return err
		}
	}
	return nil
}
