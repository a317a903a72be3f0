package analysis

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// moduleRootDir walks up from the test's working directory to go.mod.
func moduleRootDir(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// sharedLoader is reused across golden subtests: the expensive part of a
// load is type-checking the standard library once.
var sharedLoader *Loader

func testLoader(t *testing.T) *Loader {
	t.Helper()
	if sharedLoader == nil {
		l, err := NewLoader(moduleRootDir(t))
		if err != nil {
			t.Fatal(err)
		}
		sharedLoader = l
	}
	return sharedLoader
}

// wantRE pulls the quoted regexps out of a `// want "..." "..."` comment.
var wantRE = regexp.MustCompile(`"([^"]*)"`)

type expectation struct {
	path    string // module-root-relative
	line    int
	re      *regexp.Regexp
	matched bool
}

// parseExpectations scans the package's source files for want comments.
func parseExpectations(t *testing.T, root string, pkg *Package) []*expectation {
	t.Helper()
	var exps []*expectation
	names, err := sourceFiles(pkg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		path := filepath.Join(pkg.Dir, name)
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			_, tail, ok := strings.Cut(sc.Text(), "// want ")
			if !ok {
				continue
			}
			for _, m := range wantRE.FindAllStringSubmatch(tail, -1) {
				exps = append(exps, &expectation{
					path: relPath(root, path),
					line: line,
					re:   regexp.MustCompile(m[1]),
				})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		_ = f.Close()
	}
	return exps
}

// TestGolden runs each analyzer over its testdata package and compares
// the findings against the // want comments, both directions.
func TestGolden(t *testing.T) {
	cases := []struct{ analyzer, dir string }{
		{"caps-discipline", "caps"},
		{"pmem-discipline", "pmem"},
		{"hotpath", "hotpath"},
		{"unchecked-error", "errcheck"},
		{"probe-discipline", "probe"},
		{"hotpath", "hotpathtree"},
		{"goroutine-lifecycle", "goroutine"},
		{"lock-order", "lockorder"},
	}
	loader := testLoader(t)
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			a := ByName(tc.analyzer)
			if a == nil {
				t.Fatalf("unknown analyzer %q", tc.analyzer)
			}
			pkg, err := loader.LoadDir(filepath.Join("internal", "analysis", "testdata", tc.dir))
			if err != nil {
				t.Fatal(err)
			}
			diags := RunAnalyzer(a, loader, []*Package{pkg})
			exps := parseExpectations(t, loader.ModuleRoot, pkg)
			if len(exps) == 0 {
				t.Fatal("testdata package has no // want comments")
			}
			for _, d := range diags {
				ok := false
				for _, e := range exps {
					if e.path == d.Path && e.line == d.Line && e.re.MatchString(d.Message) {
						e.matched = true
						ok = true
					}
				}
				if !ok {
					t.Errorf("unexpected finding: %s", d)
				}
			}
			for _, e := range exps {
				if !e.matched {
					t.Errorf("%s:%d: expected finding matching %q, got none", e.path, e.line, e.re)
				}
			}
		})
	}
}

// TestGoldenSuppression runs the whole suite over one testdata package
// through the allowlist filter, checking Matches end to end.
func TestGoldenSuppression(t *testing.T) {
	loader := testLoader(t)
	pkg, err := loader.LoadDir(filepath.Join("internal", "analysis", "testdata", "caps"))
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzer(ByName("caps-discipline"), loader, []*Package{pkg})
	if len(diags) == 0 {
		t.Fatal("expected findings in testdata/caps")
	}
	allow := []AllowEntry{{Analyzer: "caps-discipline", Path: "internal/analysis/testdata/...", Note: "test"}}
	for _, d := range diags {
		if !allow[0].Matches(d) {
			t.Errorf("dir/... allowlist entry failed to match %s", d)
		}
	}
	other := Diagnostic{Analyzer: "caps-discipline", Path: "internal/viper/viper.go"}
	if allow[0].Matches(other) {
		t.Errorf("allowlist entry matched a path outside its prefix: %s", other.Path)
	}
}

// TestRepoClean is the self-check: the repository at HEAD must be free
// of findings and must carry no stale allowlist entries, so the
// pieceslint CI step cannot silently rot.
func TestRepoClean(t *testing.T) {
	res, err := Run(moduleRootDir(t), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diags {
		t.Errorf("repository not pieceslint-clean: %s", d)
	}
	for _, e := range res.Unused {
		t.Errorf("stale %s entry (line %d): %s %s matches nothing; delete it", AllowlistFile, e.Line, e.Analyzer, e.Path)
	}
}

// TestSuiteWiring pins the analyzer set and lookup.
func TestSuiteWiring(t *testing.T) {
	want := []string{
		"caps-discipline", "pmem-discipline", "hotpath",
		"unchecked-error", "probe-discipline",
		"goroutine-lifecycle", "lock-order",
	}
	suite := Suite()
	if len(suite) != len(want) {
		t.Fatalf("Suite() has %d analyzers, want %d", len(suite), len(want))
	}
	for i, name := range want {
		if suite[i].Name != name {
			t.Errorf("Suite()[%d] = %q, want %q", i, suite[i].Name, name)
		}
		if ByName(name) != suite[i] {
			t.Errorf("ByName(%q) did not return the suite analyzer", name)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName of unknown name should be nil")
	}
	d := Diagnostic{Analyzer: "hotpath", Path: "a/b.go", Line: 3, Col: 7, Message: "m"}
	if got, want := d.String(), "a/b.go:3:7: hotpath: m"; got != want {
		t.Errorf("Diagnostic.String() = %q, want %q", got, want)
	}
}
