package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is the parsed, type-checked, non-test view of one Go
// package. Test files (_test.go) are excluded on purpose: the suite's
// conventions govern production code, and tests legitimately compare
// floats exactly, spin goroutines, and discard errors.
type Package struct {
	// Fset is the file set shared by every package of one Load.
	Fset *token.FileSet
	// Path is the package's import path.
	Path string
	// Name is the package name from the source files.
	Name string
	// Dir is the package directory on disk.
	Dir string
	// Files are the parsed non-test source files.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression and identifier facts.
	Info *types.Info
}

// listed is the part of one `go list -json` record Load reads.
type listed struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Imports    []string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

// Import implements types.Importer.
func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Load resolves go-tool package patterns with one `go list -deps
// -export` run in dir and returns the matched packages that hold
// non-test Go files, in dependency order. The matched packages are
// parsed and type-checked from source, each importing the
// source-checked packages it depends on, so objects keep one identity
// across the program. Every other package — the standard library
// included — is imported from the compiler export data that the same
// run leaves in the build cache. A dependency that itself imports a
// source-checked package is checked from source too: its export data
// would otherwise carry a second copy of that package's types.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-deps", "-export",
		"-json=ImportPath,Name,Dir,GoFiles,Imports,Export,DepOnly,Error", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v: %s", err, strings.TrimSpace(stderr.String()))
	}

	fset := token.NewFileSet()
	exports := make(map[string]string)
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %s", path)
		}
		return os.Open(file)
	})
	checked := make(map[string]*types.Package)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if tpkg, ok := checked[path]; ok {
			return tpkg, nil
		}
		return gc.Import(path)
	})

	var pkgs []*Package
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listed
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, strings.TrimSpace(lp.Error.Err))
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if len(lp.GoFiles) == 0 || lp.DepOnly && !importsAny(lp.Imports, checked) {
			continue
		}
		pkg, err := check(fset, imp, &lp)
		if err != nil {
			return nil, err
		}
		checked[pkg.Path] = pkg.Types
		if !lp.DepOnly {
			pkgs = append(pkgs, pkg)
		}
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("lint: no packages with non-test Go files match %s", strings.Join(patterns, " "))
	}
	return pkgs, nil
}

// importsAny reports whether one of imports is a source-checked package.
func importsAny(imports []string, checked map[string]*types.Package) bool {
	for _, path := range imports {
		if checked[path] != nil {
			return true
		}
	}
	return false
}

// check parses and type-checks one listed package from source.
func check(fset *token.FileSet, imp types.Importer, lp *listed) (*Package, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErr error
	cfg := types.Config{
		Importer: imp,
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	tpkg, err := cfg.Check(lp.ImportPath, fset, files, info)
	if typeErr != nil {
		err = typeErr
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", lp.Dir, err)
	}
	return &Package{
		Fset:  fset,
		Path:  lp.ImportPath,
		Name:  lp.Name,
		Dir:   lp.Dir,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}
