// Package lint implements mlocvet's stdlib-only static-analysis
// framework: a package loader, a small analyzer API, and the
// //mlocvet:ignore suppression machinery shared by the analyzers in
// this package. The loader (Load) asks the go tool for the package
// graph with one `go list -deps -export` run, parses and type-checks
// the matched packages from source, and imports everything else —
// the standard library included — from compiler export data.
//
// The analyzers machine-enforce repository conventions that ordinary
// `go vet` does not know about. The syntactic ones read one package's
// AST and types:
//
//   - errprefix: error strings must carry the owning package's
//     "<pkg>: " prefix
//   - floatcmp: no == / != on floating-point operands outside tests
//   - commescape: *mpi.Comm is rank-local and must not be stored in
//     struct fields, sent on channels, or captured by go statements
//   - uncheckederr: error results must not be discarded via _ or a
//     bare call statement
//   - exporteddoc: exported identifiers in library packages need doc
//     comments
//   - ctxfirst: exported functions accepting a context.Context must
//     take it as their first parameter
//   - ctxflow: held contexts must be forwarded, not replaced, and
//     I/O loops must poll cancellation
//   - constshare: re-typed magic literals that must come from the
//     shared named constant
//   - ignorereason: //mlocvet:ignore directives must carry a
//     "-- reason" explaining the suppression
//
// The others are built on internal/lint/flow: a static call graph over every
// loaded package, a per-function control-flow graph, and one dataflow
// solver (flow.Solve) of which every per-function analysis is an
// instance. Mutexes held at each point (forward, intersection):
//
//   - lockorder: cross-package mutex acquisition-order cycles
//     (potential deadlocks)
//   - atomicmix: fields accessed both atomically and plainly, or with
//     inconsistent mutex protection
//
// Events that must still happen, deferred events already registered,
// and events that already happened, on every path (flow.SolveMust:
// backward and forward, intersection):
//
//   - goleak: go statements need a bounded exit on every path
//   - closepath: pooled and constructed values need a release on every
//     path, error returns and panics included
//   - bodylimit: every network body read must be length-bounded by
//     io.LimitReader or http.MaxBytesReader
//
// The cluster trust boundary (request bodies, peer responses, store
// files) has no analyzer: a test or a fuzz seed at each bounds check
// gates it.
//
// The package deliberately depends only on the standard library
// (go/ast, go/importer, go/parser, go/token, go/types) and the go
// command so the module keeps its zero-dependency go.mod.
package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"mloc/internal/lint/flow"
)

// fsetOf returns the packages' shared file set.
func fsetOf(pkgs []*Package) *token.FileSet {
	if len(pkgs) == 0 {
		return token.NewFileSet()
	}
	return pkgs[0].Fset
}

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	// Pos locates the finding; only Filename and Line are rendered.
	Pos token.Position
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Message describes the finding.
	Message string
}

// String renders the diagnostic in mlocvet's canonical
// "file:line: analyzer: message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Analyzer is one named check. Package analyzers set Run and see one
// package at a time; program analyzers set RunProgram and see every
// loaded package at once (plus the shared flow facts) — that is how
// the cross-package checks (lock ordering, shared constants, mixed
// atomics) work. Exactly one of Run / RunProgram is non-nil.
type Analyzer struct {
	// Name is the short kebab-case identifier used in diagnostics and
	// //mlocvet:ignore comments.
	Name string
	// Doc is a one-line description shown by `mlocvet -list`.
	Doc string
	// Run applies a per-package check, reporting findings through the
	// pass.
	Run func(*Pass)
	// RunProgram applies a whole-program check over all loaded
	// packages.
	RunProgram func(*ProgramPass)
}

// Pass carries one analyzer's view of one package plus the diagnostic
// sink.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Pkg is the loaded package under analysis.
	Pkg   *Package
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ProgramPass carries a program analyzer's view of every loaded
// package, the shared flow facts, and the diagnostic sink.
type ProgramPass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Pkgs are all loaded packages, in load order.
	Pkgs []*Package
	// Flow is the shared call graph and lock facts over Pkgs.
	Flow *flow.Program
	fset *token.FileSet
	// lockFacts is built lazily, once, on first use.
	lockFacts *flow.LockFacts
	diags     *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// LockFacts returns the program's lock facts, building them on first
// use and sharing them between the concurrency analyzers of one run.
func (p *ProgramPass) LockFacts() *flow.LockFacts {
	if p.lockFacts == nil {
		p.lockFacts = flow.BuildLockFacts(p.Flow)
	}
	return p.lockFacts
}

// FlowPackage adapts a loaded package to flow's package view.
func FlowPackage(pkg *Package) *flow.PackageInfo {
	return &flow.PackageInfo{
		Path:  pkg.Path,
		Fset:  pkg.Fset,
		Files: pkg.Files,
		Types: pkg.Types,
		Info:  pkg.Info,
	}
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		ErrPrefix,
		FloatCmp,
		CommEscape,
		UncheckedErr,
		ExportedDoc,
		CtxFirst,
		LockOrder,
		ConstShare,
		AtomicMix,
		GoLeak,
		CtxFlow,
		ClosePath,
		IgnoreReason,
		BodyLimit,
	}
}

// ByName resolves an analyzer by its Name, or nil if unknown.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies the given analyzers to one package. It is RunAll over a
// single-package program; see RunAll for the semantics.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return RunAll([]*Package{pkg}, analyzers)
}

// RunAll applies the given analyzers across all loaded packages:
// package analyzers run once per package, program analyzers run once
// over the whole set with shared flow facts. Findings suppressed by
// //mlocvet:ignore comments are dropped; the rest return sorted by
// position.
func RunAll(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		for _, pkg := range pkgs {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &diags})
		}
	}
	var prog *flow.Program
	var facts *flow.LockFacts
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		if prog == nil {
			infos := make([]*flow.PackageInfo, len(pkgs))
			for i, pkg := range pkgs {
				infos[i] = FlowPackage(pkg)
			}
			prog = flow.BuildProgram(infos)
		}
		pp := &ProgramPass{
			Analyzer:  a,
			Pkgs:      pkgs,
			Flow:      prog,
			fset:      fsetOf(pkgs),
			lockFacts: facts,
			diags:     &diags,
		}
		a.RunProgram(pp)
		facts = pp.lockFacts // share across program analyzers
	}
	for _, pkg := range pkgs {
		diags = filterIgnored(pkg, diags)
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		if diags[i].Pos.Line != diags[j].Pos.Line {
			return diags[i].Pos.Line < diags[j].Pos.Line
		}
		if diags[i].Pos.Column != diags[j].Pos.Column {
			return diags[i].Pos.Column < diags[j].Pos.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// ignoreDirective is the comment prefix that suppresses findings. A
// directive names one or more analyzers followed by a mandatory
// reason: "//mlocvet:ignore floatcmp -- bit-exact golden comparison".
// It applies to its own line — as a trailing comment — or to the line
// directly below it. Bare directives (no "-- reason") still suppress
// for compatibility, but the ignorereason analyzer reports them, and
// an ignorereason finding can only be suppressed by a directive that
// itself carries a reason.
const ignoreDirective = "//mlocvet:ignore"

// ignoreEntry is one parsed ignore directive: the analyzers it names
// and whether it carries a "-- reason" tail.
type ignoreEntry struct {
	names     []string
	hasReason bool
}

// parseIgnoreDirective parses the text after the directive prefix into
// analyzer names and the reason flag. Names stop at the "--"
// separator (everything after it is the free-form reason) or at a
// nested "//" opening unrelated commentary.
func parseIgnoreDirective(rest string) ignoreEntry {
	namePart, reason, found := strings.Cut(rest, "--")
	namePart, _, _ = strings.Cut(namePart, "//")
	return ignoreEntry{
		names:     strings.FieldsFunc(namePart, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }),
		hasReason: found && strings.TrimSpace(reason) != "",
	}
}

// matches reports whether the entry suppresses the given analyzer. An
// ignorereason finding is only suppressed by an entry that itself has
// a reason — a bare directive cannot excuse itself.
func (e ignoreEntry) matches(analyzer string) bool {
	if analyzer == IgnoreReason.Name && !e.hasReason {
		return false
	}
	for _, n := range e.names {
		if n == analyzer {
			return true
		}
	}
	return false
}

// filterIgnored removes diagnostics whose line carries (or follows) an
// ignore directive naming the diagnostic's analyzer.
func filterIgnored(pkg *Package, diags []Diagnostic) []Diagnostic {
	ignored := ignoredLines(pkg)
	if len(ignored) == 0 {
		return diags
	}
	out := diags[:0]
	for _, d := range diags {
		byLine := ignored[d.Pos.Filename]
		if anyEntryMatches(byLine[d.Pos.Line], d.Analyzer) ||
			anyEntryMatches(byLine[d.Pos.Line-1], d.Analyzer) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// ignoredLines collects the parsed ignore directives per file and line.
func ignoredLines(pkg *Package) map[string]map[int][]ignoreEntry {
	out := make(map[string]map[int][]ignoreEntry)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignoreDirective) {
					continue
				}
				e := parseIgnoreDirective(strings.TrimPrefix(c.Text, ignoreDirective))
				if len(e.names) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]ignoreEntry)
					out[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], e)
			}
		}
	}
	return out
}

// anyEntryMatches reports whether any entry suppresses the analyzer.
func anyEntryMatches(entries []ignoreEntry, analyzer string) bool {
	for _, e := range entries {
		if e.matches(analyzer) {
			return true
		}
	}
	return false
}

// pathHasSuffix reports whether import path p ends in the
// slash-separated suffix (e.g. "internal/mpi").
func pathHasSuffix(p, suffix string) bool {
	return p == suffix || strings.HasSuffix(p, "/"+suffix)
}

// isNamedType reports whether t (behind at most one pointer) is the
// named type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	p, n := flow.NamedType(t)
	return p == pkgPath && n == name
}
