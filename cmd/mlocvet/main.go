// Command mlocvet runs MLOC's custom static-analysis suite over the
// repository. It is the stdlib-only companion to `go vet`: the
// analyzers in internal/lint machine-enforce conventions the standard
// checks do not know about — rank-local *mpi.Comm, "<pkg>: " error
// prefixes, tolerance-based float comparison, checked errors,
// documented exports, forwarded contexts, hot-loop allocations, shared
// magic constants, reasoned suppressions — and, on internal/lint/flow's
// call graph, per-function CFGs and one dataflow solver: lock-order
// cycles and mixed atomic/mutex field disciplines, goroutines with a
// bounded exit, pooled values released and virtual-clock charges made
// on every path, bounded body reads, and untrusted lengths kept away
// from allocations, loop bounds and metric labels.
//
// Usage:
//
//	mlocvet [-list] [-only names] [-sarif] [packages]
//
// Packages are go-tool patterns, resolved by `go list` inside the
// enclosing module; the default is "./...". All matched packages load
// into one program so the cross-package analyzers see every edge: they
// are type-checked from source, and everything they import comes from
// the compiler's export data in the build cache.
// Diagnostics print one per line as "file:line: analyzer: message";
// -sarif emits them as a SARIF 2.1.0 log for code-scanning upload.
//
// The exit code is 0 when nothing fired, 1 otherwise, and 2 on usage
// or load errors. A finding is suppressed at the source line by a
// trailing (or immediately preceding) "//mlocvet:ignore <analyzer> --
// <reason>" comment; the ignorereason analyzer reports directives
// whose reason tail is missing.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mloc/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// printf writes formatted driver output. A failed write (closed pipe)
// must not mask the analysis exit code, so the write error is
// deliberately dropped.
func printf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...) //mlocvet:ignore uncheckederr -- diagnostics to stderr; a failed write has nowhere better to go
}

// run executes the driver and returns its exit code: 0 clean, 1
// findings, 2 usage or load failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mlocvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	sarifOut := fs.Bool("sarif", false, "emit diagnostics as a SARIF 2.1.0 log")
	fs.Usage = func() {
		printf(stderr, "usage: mlocvet [-list] [-only names] [-sarif] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := lint.All()
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a := lint.ByName(name)
			if a == nil {
				printf(stderr, "mlocvet: unknown analyzer %q (see mlocvet -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}
	if *list {
		for _, a := range analyzers {
			printf(stdout, "%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// Load every matched package into one program: the cross-package
	// analyzers (lockorder, atomicmix) need the whole graph at once.
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		printf(stderr, "mlocvet: %v\n", err)
		return 2
	}
	diags := lint.RunAll(pkgs, analyzers)
	for i := range diags {
		diags[i].Pos.Filename = relPath(diags[i].Pos.Filename)
	}

	if *sarifOut {
		if err := lint.WriteSARIF(stdout, diags, analyzers); err != nil {
			printf(stderr, "mlocvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			printf(stdout, "%s\n", d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// relPath shortens an absolute diagnostic path relative to the current
// directory when that makes it strictly shorter to read.
func relPath(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(wd, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}
