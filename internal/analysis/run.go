package analysis

import "path/filepath"

// AllowlistFile is the committed exception file, at the module root.
const AllowlistFile = "pieceslint.allow"

// Result is one pieceslint run over a set of packages.
type Result struct {
	// Diags are the surviving findings, sorted by position.
	Diags []Diagnostic
	// Suppressed are findings matched by an allowlist entry.
	Suppressed []Diagnostic
	// Unused are allowlist entries that suppressed nothing — stale
	// exceptions that should be deleted.
	Unused []AllowEntry
}

// Run loads the packages matching patterns under moduleRoot, runs the
// full analyzer suite, and filters findings through the committed
// allowlist (moduleRoot/pieceslint.allow, when present).
func Run(moduleRoot string, patterns []string) (*Result, error) {
	loader, err := NewLoader(moduleRoot)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.LoadPatterns(patterns)
	if err != nil {
		return nil, err
	}
	allow, err := ParseAllowlist(filepath.Join(moduleRoot, AllowlistFile))
	if err != nil {
		return nil, err
	}
	raw := RunSuite(loader, pkgs)
	res := &Result{}
	used := make(map[int]bool)
	for _, d := range raw {
		matched := false
		for i, e := range allow {
			if e.Matches(d) {
				matched = true
				used[i] = true
			}
		}
		if matched {
			res.Suppressed = append(res.Suppressed, d)
		} else {
			res.Diags = append(res.Diags, d)
		}
	}
	for i, e := range allow {
		if !used[i] {
			res.Unused = append(res.Unused, e)
		}
	}
	return res, nil
}

// RunSuite runs every analyzer over pkgs and returns the raw findings,
// sorted, with no allowlist filtering.
func RunSuite(loader *Loader, pkgs []*Package) []Diagnostic {
	var out []Diagnostic
	for _, a := range Suite() {
		out = append(out, RunAnalyzer(a, loader, pkgs)...)
	}
	sortDiags(out)
	return out
}

// RunAnalyzer runs one analyzer over pkgs.
func RunAnalyzer(a *Analyzer, loader *Loader, pkgs []*Package) []Diagnostic {
	var out []Diagnostic
	rep := &Reporter{analyzer: a.Name, fset: loader.Fset, root: loader.ModuleRoot, out: &out}
	if a.RunModule != nil {
		a.RunModule(&ModulePass{Reporter: rep, Pkgs: pkgs, Loader: loader})
	} else {
		for _, pkg := range pkgs {
			a.Run(&Pass{Reporter: rep, Pkg: pkg})
		}
	}
	sortDiags(out)
	return out
}
