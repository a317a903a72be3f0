// Command pieceslint runs the repository's invariant analyzer suite
// (internal/analysis) and exits non-zero when any contract is violated.
//
// Usage:
//
//	go run ./cmd/pieceslint ./...
//	go run ./cmd/pieceslint -strict -annotate ./...   # CI
//
// Findings print one per line as path:line:col: analyzer: message.
// Intentional exceptions live in pieceslint.allow at the module root;
// stale entries there are warnings, or failures under -strict so the
// file cannot rot. -annotate additionally prints GitHub workflow
// annotation commands.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"learnedpieces/internal/analysis"
)

func main() {
	annotate := flag.Bool("annotate", false, "also emit GitHub workflow annotation commands")
	strict := flag.Bool("strict", false, "fail (exit 1) on stale allowlist entries instead of warning")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pieceslint [-annotate] [-strict] [pattern ...]\n\npatterns are package directories relative to the module root,\noptionally ending in /... for a recursive walk (default ./...)\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pieceslint:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	res, err := analysis.Run(root, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pieceslint:", err)
		os.Exit(2)
	}

	for _, d := range res.Diags {
		fmt.Println(d)
	}
	if *annotate {
		for _, d := range res.Diags {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=pieceslint %s::%s\n", d.Path, d.Line, d.Col, d.Analyzer, d.Message)
		}
		for _, e := range res.Unused {
			fmt.Printf("::warning file=%s,line=%d,title=pieceslint stale allowlist::entry %q %q matched nothing; delete it\n", analysis.AllowlistFile, e.Line, e.Analyzer, e.Path)
		}
	}

	for _, e := range res.Unused {
		level := "warning"
		if *strict {
			level = "error"
		}
		fmt.Fprintf(os.Stderr, "pieceslint: %s: %s:%d: allowlist entry %q %q matched nothing; delete it\n",
			level, analysis.AllowlistFile, e.Line, e.Analyzer, e.Path)
	}

	failed := len(res.Diags) > 0 || (*strict && len(res.Unused) > 0)
	if len(res.Diags) > 0 {
		fmt.Fprintf(os.Stderr, "pieceslint: %d finding(s), %d suppressed by %s\n", len(res.Diags), len(res.Suppressed), analysis.AllowlistFile)
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("pieceslint: clean (%d finding(s) suppressed by %s)\n", len(res.Suppressed), analysis.AllowlistFile)
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
