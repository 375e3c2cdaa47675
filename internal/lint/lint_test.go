package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// sharedLoader caches one loader (and thus one type-checked stdlib)
// across all golden tests.
var sharedLoader *Loader

func loader(t *testing.T) *Loader {
	t.Helper()
	if sharedLoader == nil {
		l, err := NewLoader(".")
		if err != nil {
			t.Fatalf("NewLoader: %v", err)
		}
		sharedLoader = l
	}
	return sharedLoader
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
	pkg, err := loader(t).Load(filepath.Join("testdata", "src", filepath.FromSlash(fixture)))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
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
		{HotAlloc, "hotalloc"},
		{ConstShare, "constshare"},
		{AtomicMix, "atomicmix"},
		{GoLeak, "goleak"},
		{CtxFlow, "ctxflow"},
		{ClosePath, "closepath"},
		{ClockCharge, "clockcharge/internal/pfs"}, // scoped: analyzer only fires on internal/pfs, internal/core paths
		{IgnoreReason, "ignorereason"},
		{TaintFlow, "taintflow"},
		{BodyLimit, "bodylimit"},
		{LabelCard, "labelcard"},
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
		HotAlloc.Name:     "hotalloc",
		ConstShare.Name:   "constshare",
		AtomicMix.Name:    "atomicmix",
		GoLeak.Name:       "goleak",
		CtxFlow.Name:      "ctxflow",
		ClosePath.Name:    "closepath",
		ClockCharge.Name:  "clockcharge/internal/pfs",
		IgnoreReason.Name: "ignorereason",
		TaintFlow.Name:    "taintflow",
		BodyLimit.Name:    "bodylimit",
		LabelCard.Name:    "labelcard",
	}
	if len(fixtures) != len(All()) {
		t.Fatalf("fixture map covers %d analyzers, suite has %d", len(fixtures), len(All()))
	}
	for _, a := range All() {
		pkg, err := loader(t).Load(filepath.Join("testdata", "src", fixtures[a.Name]))
		if err != nil {
			t.Fatalf("loading fixture for %s: %v", a.Name, err)
		}
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

func TestExpandSkipsTestdata(t *testing.T) {
	dirs, err := loader(t).Expand([]string{"./..."})
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	found := false
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("Expand included testdata dir %s", d)
		}
		if filepath.Clean(d) == "." {
			found = true
		}
	}
	if !found {
		t.Fatalf("Expand(./...) from the lint dir did not include the lint package itself: %v", dirs)
	}
}

// TestSuiteCleanOnSelf runs the full suite over this package: the lint
// implementation must satisfy its own conventions.
func TestSuiteCleanOnSelf(t *testing.T) {
	pkg, err := loader(t).Load(".")
	if err != nil {
		t.Fatalf("loading internal/lint: %v", err)
	}
	for _, d := range Run(pkg, All()) {
		t.Errorf("self-check: %s", d)
	}
}

// TestIgnoreDirectiveOnPrecedingLine verifies that a directive on its
// own line suppresses a finding on the next line.
func TestIgnoreDirectiveOnPrecedingLine(t *testing.T) {
	pkg, err := loader(t).Load(filepath.Join("testdata", "src", "errprefix"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	for _, d := range Run(pkg, []*Analyzer{ErrPrefix}) {
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
