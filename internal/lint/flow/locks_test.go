package flow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// srcProgram type-checks one source string into a Program. Sources
// may declare bodyless functions (use, work) that the snippets call.
func srcProgram(t *testing.T, src string) *Program {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", nil)}
	pkg, err := conf.Check("srctest", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	pi := &PackageInfo{Path: "srctest", Fset: fset, Files: []*ast.File{f}, Types: pkg, Info: info}
	return BuildProgram([]*PackageInfo{pi})
}

// heldAtUse solves f's held sets in a snippet and returns the classes
// held at its one use() call, rendered "a,b" in name order.
func heldAtUse(t *testing.T, body string) string {
	t.Helper()
	p := srcProgram(t, `package p

import "sync"

var mu, other sync.Mutex

func use()
func work() bool

func f(c bool, n int, ch chan int) {
`+body+`
}`)
	facts := BuildLockFacts(p)
	got, seen := "", false
	for _, fi := range p.Funcs {
		if fi.Obj.Name() != "f" {
			continue
		}
		facts.WalkHeld(fi, func(node ast.Node, held []*LockClass) {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "use" {
				return
			}
			if seen {
				t.Fatalf("use() reported twice")
			}
			seen = true
			names := make([]string, len(held))
			for i, c := range held {
				names[i] = c.Obj.Name()
			}
			got = strings.Join(names, ",")
		})
	}
	if !seen {
		t.Fatalf("use() was never reported")
	}
	return got
}

// TestWalkHeld pins the must-hold set at a marked call across the
// control-flow shapes the lock analyzers meet. The last three rows are
// the paths a structured statement walk cannot follow: a lock released
// on the way out through break, continue-to-label, or goto.
func TestWalkHeld(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"straight line", `mu.Lock(); use(); mu.Unlock()`, "mu"},
		{"branch returns while holding", `
			mu.Lock()
			if c {
				return
			}
			use()
			mu.Unlock()`, "mu"},
		{"one arm unlocks", `
			mu.Lock()
			if c {
				mu.Unlock()
			} else {
				work()
			}
			use()`, ""},
		{"both arms lock", `
			if c {
				mu.Lock()
			} else {
				mu.Lock()
				other.Lock()
			}
			use()`, "mu"},
		{"deferred unlock keeps holding", `
			mu.Lock()
			defer mu.Unlock()
			use()`, "mu"},
		{"balanced inside a loop body", `
			for i := 0; i < n; i++ {
				mu.Lock()
				work()
				mu.Unlock()
			}
			use()`, ""},
		{"held across a loop", `
			mu.Lock()
			for i := 0; i < n; i++ {
				use()
			}
			mu.Unlock()`, "mu"},
		{"switch without default", `
			switch n {
			case 1:
				mu.Lock()
			}
			use()`, ""},
		{"switch with default", `
			switch n {
			case 1:
				mu.Lock()
			default:
				mu.Lock()
			}
			use()`, "mu"},
		{"select arm unlocks", `
			mu.Lock()
			select {
			case <-ch:
				mu.Unlock()
			case ch <- 1:
			}
			use()`, ""},
		{"invoked closure inherits", `
			mu.Lock()
			func() { use() }()
			mu.Unlock()`, "mu"},
		{"closure keeps its own locks apart", `
			func() { mu.Lock() }()
			use()`, ""},
		{"spawned closure starts empty", `
			mu.Lock()
			go func() { use() }()
			mu.Unlock()`, ""},
		{"deferred closure starts empty", `
			mu.Lock()
			defer func() { use() }()
			mu.Unlock()`, ""},
		{"unlock then break", `
			mu.Lock()
			for {
				if work() {
					mu.Unlock()
					break
				}
			}
			use()`, ""},
		{"unlock then continue to outer label", `
			mu.Lock()
		outer:
			for i := 0; i < n; i++ {
				use()
				for {
					if work() {
						mu.Unlock()
						continue outer
					}
				}
			}`, ""},
		{"unlock then goto", `
			mu.Lock()
			if c {
				mu.Unlock()
				goto done
			}
			work()
		done:
			use()`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := heldAtUse(t, tc.body); got != tc.want {
				t.Errorf("held at use() = {%s}, want {%s}", got, tc.want)
			}
		})
	}
}
