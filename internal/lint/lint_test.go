package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// loadAll loads this package and every fixture in one program, once
// for all tests, keyed by absolute directory.
var loadAll = sync.OnceValues(func() (map[string]*Package, error) {
	pkgs, err := Load(".", ".", "./testdata/src/...")
	if err != nil {
		return nil, err
	}
	byDir := make(map[string]*Package, len(pkgs))
	for _, pkg := range pkgs {
		byDir[pkg.Dir] = pkg
	}
	return byDir, nil
})

// load returns the loaded package in dir, relative to this package.
func load(t *testing.T, dir string) *Package {
	t.Helper()
	byDir, err := loadAll()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("resolving %s: %v", dir, err)
	}
	pkg := byDir[abs]
	if pkg == nil {
		t.Fatalf("package %s was not loaded", dir)
	}
	return pkg
}

// expectation is one "// want `regexp`" annotation in a fixture.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRe = regexp.MustCompile("// want `([^`]*)`")

// parseWants scans a fixture package's sources for want annotations.
func parseWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		filename := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(filename)
		if err != nil {
			t.Fatalf("reading fixture %s: %v", filename, err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", filename, i+1, m[1], err)
				}
				wants = append(wants, &expectation{file: filename, line: i + 1, re: re})
			}
		}
	}
	return wants
}

// runGolden loads a fixture, runs one analyzer, and compares the
// diagnostics against the fixture's want annotations.
func runGolden(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	pkg := load(t, filepath.Join("testdata", "src", filepath.FromSlash(fixture)))
	diags := Run(pkg, []*Analyzer{a})
	wants := parseWants(t, pkg)
diag:
	for _, d := range diags {
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				continue diag
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.re)
		}
	}
}

func TestAnalyzersGolden(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		fixture  string
	}{
		{ErrPrefix, "errprefix"},
		{FloatCmp, "floatcmp"},
		{CommEscape, "commescape"},
		{UncheckedErr, "uncheckederr"},
		{ExportedDoc, "exporteddoc"},
		{CtxFirst, "ctxfirst"},
		{LockOrder, "lockorder"},
		{ConstShare, "constshare"},
		{AtomicMix, "atomicmix"},
		{GoLeak, "goleak"},
		{CtxFlow, "ctxflow"},
		{ClosePath, "closepath"},
		{IgnoreReason, "ignorereason"},
		{BodyLimit, "bodylimit"},
	}
	for _, tc := range cases {
		name := tc.analyzer.Name + "/" + strings.ReplaceAll(tc.fixture, "/", "_")
		t.Run(name, func(t *testing.T) {
			runGolden(t, tc.analyzer, tc.fixture)
		})
	}
}

// TestGoldenTruePositives guards the acceptance criterion that every
// analyzer demonstrates at least one real diagnostic on its fixture.
func TestGoldenTruePositives(t *testing.T) {
	fixtures := map[string]string{
		ErrPrefix.Name:    "errprefix",
		FloatCmp.Name:     "floatcmp",
		CommEscape.Name:   "commescape",
		UncheckedErr.Name: "uncheckederr",
		ExportedDoc.Name:  "exporteddoc",
		CtxFirst.Name:     "ctxfirst",
		LockOrder.Name:    "lockorder",
		ConstShare.Name:   "constshare",
		AtomicMix.Name:    "atomicmix",
		GoLeak.Name:       "goleak",
		CtxFlow.Name:      "ctxflow",
		ClosePath.Name:    "closepath",
		IgnoreReason.Name: "ignorereason",
		BodyLimit.Name:    "bodylimit",
	}
	if len(fixtures) != len(All()) {
		t.Fatalf("fixture map covers %d analyzers, suite has %d", len(fixtures), len(All()))
	}
	for _, a := range All() {
		pkg := load(t, filepath.Join("testdata", "src", fixtures[a.Name]))
		if diags := Run(pkg, []*Analyzer{a}); len(diags) == 0 {
			t.Errorf("analyzer %s produced no diagnostics on its fixture", a.Name)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:      token.Position{Filename: "x/y.go", Line: 12, Column: 3},
		Analyzer: "floatcmp",
		Message:  "== on floating-point operands",
	}
	got := d.String()
	want := "x/y.go:12: floatcmp: == on floating-point operands"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	re := regexp.MustCompile(`^(.+\.go):(\d+): ([a-z-]+): (.+)$`)
	if !re.MatchString(got) {
		t.Errorf("diagnostic %q does not match the documented file:line: analyzer: message format", got)
	}
}

func TestByName(t *testing.T) {
	for _, a := range All() {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the suite analyzer", a.Name)
		}
	}
	if ByName("nope") != nil {
		t.Errorf("ByName(nope) = non-nil")
	}
}

func TestLoadSkipsTestdata(t *testing.T) {
	pkgs, err := Load(".", "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatalf("resolving .: %v", err)
	}
	found := false
	for _, pkg := range pkgs {
		if strings.Contains(pkg.Dir, "testdata") {
			t.Errorf("Load included testdata dir %s", pkg.Dir)
		}
		if pkg.Dir == self {
			found = true
		}
	}
	if !found {
		t.Fatalf("Load(./...) from the lint dir did not include the lint package itself")
	}
}

// TestLoadKeepsIdentityThroughDependency loads two packages joined
// only through one the patterns do not match (cmd/mlocd reaches
// internal/core's types through internal/server): the middle package
// must be checked from source too, or its export data brings a second
// copy of core.Store and cmd/mlocd fails to type-check.
func TestLoadKeepsIdentityThroughDependency(t *testing.T) {
	pkgs, err := Load(".", "../../cmd/mlocd", "../core")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var paths []string
	for _, pkg := range pkgs {
		paths = append(paths, pkg.Path)
	}
	if want := []string{"mloc/internal/core", "mloc/cmd/mlocd"}; !slices.Equal(paths, want) {
		t.Errorf("Load returned %v, want %v", paths, want)
	}
}

// TestSuiteCleanOnSelf runs the full suite over this package: the lint
// implementation must satisfy its own conventions.
func TestSuiteCleanOnSelf(t *testing.T) {
	for _, d := range Run(load(t, "."), All()) {
		t.Errorf("self-check: %s", d)
	}
}

// TestIgnoreDirectiveOnPrecedingLine verifies that a directive on its
// own line suppresses a finding on the next line.
func TestIgnoreDirectiveOnPrecedingLine(t *testing.T) {
	for _, d := range Run(load(t, filepath.Join("testdata", "src", "errprefix")), []*Analyzer{ErrPrefix}) {
		if strings.Contains(d.Message, "wrapped later") {
			t.Errorf("preceding-line ignore directive did not suppress: %s", d)
		}
	}
}

func ExampleDiagnostic_String() {
	d := Diagnostic{
		Pos:      token.Position{Filename: "internal/core/engine.go", Line: 42},
		Analyzer: "uncheckederr",
		Message:  "error value discarded via _",
	}
	fmt.Println(d)
	// Output: internal/core/engine.go:42: uncheckederr: error value discarded via _
}
