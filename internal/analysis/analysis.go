// Package analysis implements pieceslint, the repository's invariant
// analyzer suite. It mechanically enforces the load-bearing contracts the
// store, the capability API and the telemetry layer rely on but the Go
// compiler cannot check:
//
//   - caps-discipline: optional index capabilities are resolved once
//     through index.CapsOf/index.Seams, never by ad-hoc type assertion.
//   - pmem-discipline: bytes handed out by pmem.Region stay read-only
//     views and are never retained, so the latency model and AccessStats
//     cover every device access.
//   - hotpath: functions annotated //pieces:hotpath stay free of fmt,
//     unsanctioned clock reads, locks, channels, defer and obvious
//     allocation constructs.
//   - unchecked-error: discarded error returns in non-test code.
//   - probe-discipline: telemetry reporter methods (RetrainStats) never
//     read a plain integer counter field the package also writes, since
//     probes call them from the snapshot goroutine.
//   - goroutine-lifecycle: every goroutine launch can observe or signal
//     shutdown somewhere on its call tree (a WaitGroup.Done, a channel
//     operation, or a close) — no silently immortal goroutines.
//   - lock-order: the module-wide mutex-acquisition graph (derived from
//     the call-graph engine's transitive lock sets) is acyclic.
//
// hotpath, goroutine-lifecycle and lock-order are interprocedural: they
// consume the call-graph engine (engine.go), which records per-function
// summaries and propagates them to a fixpoint over SCCs, so a directive
// on a function is a guarantee about its whole call tree, not just its
// own body.
//
// The suite keeps only analyzers that catch a planted bug nothing else
// in the repository catches; DESIGN.md ("Enforced invariants") holds the
// mutation table that decided it.
//
// Everything is built on the standard library only: go/parser for
// syntax, go/types for semantics, and the stdlib source importer for
// out-of-module dependencies — no go/analysis framework, no x/tools.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one finding, addressable as path:line:col.
type Diagnostic struct {
	Analyzer string
	Path     string // module-root-relative, forward slashes
	Line     int
	Col      int
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Path, d.Line, d.Col, d.Analyzer, d.Message)
}

// Reporter turns token positions into module-root-relative diagnostics
// for one analyzer.
type Reporter struct {
	analyzer string
	fset     *token.FileSet
	root     string
	out      *[]Diagnostic
}

// Reportf records a finding at pos.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...interface{}) {
	p := r.fset.Position(pos)
	*r.out = append(*r.out, Diagnostic{
		Analyzer: r.analyzer,
		Path:     relPath(r.root, p.Filename),
		Line:     p.Line,
		Col:      p.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Pass is the per-package unit of work handed to an analyzer's Run.
type Pass struct {
	*Reporter
	Pkg *Package
}

// ModulePass is the whole-module unit of work handed to RunModule, for
// analyzers whose invariant spans packages.
type ModulePass struct {
	*Reporter
	Pkgs []*Package
	// Loader gives engine-backed analyzers the full set of loaded
	// packages (analyzed targets plus their module-internal deps).
	Loader *Loader
}

// Engine returns the interprocedural call-graph engine over every
// module package the loader has seen — the analyzed targets and the
// module-internal dependencies pulled in while type-checking them — so
// summaries propagate across package boundaries even when only a
// subset is being analyzed. Engines are memoized per loader and
// package set.
func (mp *ModulePass) Engine() *Engine {
	return BuildEngine(mp.Loader, mp.Loader.CachedPackages())
}

// Analyzed reports whether pkg is one of the packages this pass was
// asked to analyze (as opposed to a dependency the engine loaded for
// propagation). Engine-backed analyzers root their checks in
// analyzed packages only.
func (mp *ModulePass) Analyzed(pkg *Package) bool {
	for _, p := range mp.Pkgs {
		if p == pkg {
			return true
		}
	}
	return false
}

// Analyzer is one invariant check. Exactly one of Run (per package) and
// RunModule (cross-package) is set.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// Suite returns the seven pieceslint analyzers in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{
		CapsDiscipline,
		PMemDiscipline,
		HotPath,
		UncheckedError,
		ProbeDiscipline,
		GoroutineLifecycle,
		LockOrder,
	}
}

// ByName returns the suite analyzer with the given name.
func ByName(name string) *Analyzer {
	for _, a := range Suite() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// sortDiags orders findings by position then analyzer, for stable output.
func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}
