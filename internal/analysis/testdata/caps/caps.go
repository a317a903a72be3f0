// Package caps exercises the caps-discipline analyzer: raw type
// assertions and type switches against the index package's optional
// capability interfaces are flagged outside internal/index, while the
// sanctioned CapsOf/Seams resolutions pass.
package caps

import "learnedpieces/internal/index"

// Resolve is the discouraged ad-hoc pattern.
func Resolve(idx index.Index) bool {
	_, ok := idx.(index.Ranger) // want "type assertion to index.Ranger"
	return ok
}

// Late covers the capabilities added after the analyzer was written:
// batch lookups and background retraining.
func Late(idx index.Index) int {
	n := 0
	if _, ok := idx.(index.BatchGetter); ok { // want "type assertion to index.BatchGetter"
		n++
	}
	switch idx.(type) {
	case index.AsyncRetrainer: // want "type switch case on index.AsyncRetrainer"
		n++
	}
	return n
}

// Switch hits the type-switch form; anonymous interfaces stay legal.
func Switch(idx index.Index) int {
	switch idx.(type) {
	case index.Deleter: // want "type switch case on index.Deleter"
		return 1
	case interface{ Flush() error }:
		return 2
	}
	return 0
}

// Sanctioned resolutions produce no findings.
func Sanctioned(idx index.Index) index.Seam {
	_ = index.CapsOf(idx)
	return index.Seams(idx)
}
