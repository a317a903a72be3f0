package core

import (
	"learnedpieces/internal/art"
	"learnedpieces/internal/btree"
	"learnedpieces/internal/cceh"
	"learnedpieces/internal/index"
	"learnedpieces/internal/learned/alex"
	"learnedpieces/internal/learned/finedex"
	"learnedpieces/internal/learned/flat"
	"learnedpieces/internal/learned/lipp"
	"learnedpieces/internal/learned/pgm"
	"learnedpieces/internal/learned/xindex"
	"learnedpieces/internal/skiplist"
)

// Entry describes one index per the paper's Table I: its choice on every
// design dimension, plus a constructor.
type Entry struct {
	Name string
	// Learned reports whether this is a learned index.
	Learned bool
	// InnerNode / LeafNode describe the structure dimension.
	InnerNode string
	LeafNode  string
	// Error is "maximum" (guaranteed) or "unfixed".
	Error string
	// Approximation is the approximation-algorithm dimension.
	Approximation string
	// Insertion is the insertion-strategy dimension ("-" if read-only).
	Insertion string
	// Retraining is the retraining-strategy dimension ("-" if read-only).
	Retraining string
	// New constructs a fresh instance with benchmark-default parameters.
	New func() index.Index
}

// Registry returns Table I (learned indexes) plus the traditional
// baselines used in §III, each with a constructor.
func Registry() []Entry {
	return []Entry{
		{
			Name: "rmi", Learned: true,
			InnerNode: "linear models", LeafNode: "linear", Error: "unfixed",
			Approximation: "machine learning (2-stage linear)",
			Insertion:     "-", Retraining: "-",
			New: func() index.Index { return flat.NewRMI(flat.RMIConfig{}) },
		},
		{
			Name: "rs", Learned: true,
			InnerNode: "radix table", LeafNode: "spline", Error: "maximum",
			Approximation: "one-pass spline",
			Insertion:     "-", Retraining: "-",
			New: func() index.Index { return flat.NewRS(flat.RSConfig{}) },
		},
		{
			Name: "rmi-delta", Learned: true,
			InnerNode: "linear models", LeafNode: "linear", Error: "unfixed",
			Approximation: "machine learning (2-stage linear)",
			Insertion:     "delta buffer", Retraining: "full rebuild",
			// Extension: RMI made updatable via the delta wrapper — the
			// paper's "retrain the whole index" strategy for structures
			// without an insertion path.
			New: func() index.Index {
				return flat.NewDelta(flat.NewRMI(flat.RMIConfig{}), flat.DeltaConfig{})
			},
		},
		{
			Name: "rs-delta", Learned: true,
			InnerNode: "radix table", LeafNode: "spline", Error: "maximum",
			Approximation: "one-pass spline",
			Insertion:     "delta buffer", Retraining: "full rebuild",
			// Extension: RadixSpline made updatable via the delta wrapper.
			New: func() index.Index {
				return flat.NewDelta(flat.NewRS(flat.RSConfig{}), flat.DeltaConfig{})
			},
		},
		{
			Name: "fiting-inp", Learned: true,
			InnerNode: "b+tree", LeafNode: "linear", Error: "maximum",
			Approximation: "opt-pla (paper §III-A1 substitutes it for greedy)",
			Insertion:     "inplace", Retraining: "retrain one node",
			New: func() index.Index { return fiting("fiting-inp", Inplace{Reserve: 256}) },
		},
		{
			Name: "fiting-buf", Learned: true,
			InnerNode: "b+tree", LeafNode: "linear", Error: "maximum",
			Approximation: "opt-pla (paper §III-A1 substitutes it for greedy)",
			Insertion:     "offsite buffer", Retraining: "retrain one node",
			New: func() index.Index { return fiting("fiting-buf", BufferInsert{Size: 256}) },
		},
		{
			Name: "pgm", Learned: true,
			InnerNode: "recursive linear", LeafNode: "linear", Error: "maximum",
			Approximation: "opt-pla",
			Insertion:     "offsite buffer", Retraining: "lsm (logarithmic method)",
			New: func() index.Index { return pgm.New(pgm.DefaultConfig()) },
		},
		{
			Name: "alex", Learned: true,
			InnerNode: "asymmetric tree", LeafNode: "gapped linear", Error: "unfixed",
			Approximation: "lsa+gap",
			Insertion:     "inplace gap", Retraining: "expand + retrain",
			New: func() index.Index { return alex.New(alex.DefaultConfig()) },
		},
		{
			Name: "xindex", Learned: true,
			InnerNode: "2-layer rmi", LeafNode: "linear", Error: "unfixed",
			Approximation: "lsa",
			Insertion:     "offsite buffer", Retraining: "retrain one node (2-phase)",
			New: func() index.Index { return xindex.New(xindex.DefaultConfig()) },
		},
		{
			Name: "finedex", Learned: true,
			InnerNode: "segment table", LeafNode: "linear + level bins", Error: "maximum",
			Approximation: "opt-pla (error-bounded models)",
			Insertion:     "fine-grained level bins", Retraining: "retrain one segment",
			// Extension: cited in the paper's intro family ([7]) but not in
			// its evaluation.
			New: func() index.Index { return finedex.New(finedex.DefaultConfig()) },
		},
		{
			Name: "lipp", Learned: true,
			InnerNode: "model nodes", LeafNode: "precise slots", Error: "zero (precise positions)",
			Approximation: "lsa+gap with per-key precise placement",
			Insertion:     "inplace gap / conflict child", Retraining: "subtree rebuild",
			// Extension: the paper's §V-B1 names LIPP as the realisation of
			// its design advice but could not evaluate it (closed source at
			// the time); this entry closes that gap.
			New: func() index.Index { return lipp.New(lipp.DefaultConfig()) },
		},
		{
			Name:      "btree",
			InnerNode: "b+tree", LeafNode: "sorted array", Error: "-",
			Approximation: "-", Insertion: "inplace", Retraining: "-",
			New: func() index.Index { return btree.New() },
		},
		{
			Name:      "skiplist",
			InnerNode: "towers", LeafNode: "linked nodes", Error: "-",
			Approximation: "-", Insertion: "linked", Retraining: "-",
			New: func() index.Index { return skiplist.New() },
		},
		{
			Name:      "art",
			InnerNode: "radix nodes", LeafNode: "leaves", Error: "-",
			Approximation: "-", Insertion: "trie descent", Retraining: "-",
			New: func() index.Index { return art.New() },
		},
		{
			Name:      "cceh",
			InnerNode: "directory", LeafNode: "hash segments", Error: "-",
			Approximation: "-", Insertion: "hashed", Retraining: "-",
			New: func() index.Index { return cceh.New() },
		},
	}
}

// fiting is a FITing-tree preset: Opt-PLA leaves at ε 32 under a B+tree,
// retrained one node at a time, inserting with ins.
func fiting(name string, ins InsertStrategy) *Composed {
	c := Compose(OptPLA{Eps: 32}, NewBTreeTop(), ins, RetrainNode{})
	c.name = name
	return c
}

// Lookup returns the registry entry with the given name.
func Lookup(name string) (Entry, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}
