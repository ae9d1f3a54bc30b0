package pgrid

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// noCallerAllowed names the functions that may stay in a non-test file with
// no non-test caller, each with the reason it is kept. An entry is
// "<directory> <Receiver.>Name", as TestEveryFunctionHasACaller prints it.
var noCallerAllowed = map[string]string{
	". Grid.RangeSearch":                      "the public API: a range query over the grid",
	". Grid.LookupAll":                        "the public API: every replica's answer to one key",
	"internal/node InstrumentTransport":       "the one instrumented transport once the slow-call recorder retires",
	"internal/core DefaultConfig":             "the paper's default parameters, the fixture of tests in many packages",
	"internal/core GnutellaConfig":            "the Sec. 4 comparison's parameters, the fixture of tests in many packages",
	"internal/telemetry History.SetNow":       "the history clock tests in other packages inject",
	"internal/telemetry Instruments.SetClock": "the uptime clock tests in other packages inject",
	"internal/telemetry Instruments.SetStart": "the incarnation epoch tests in other packages pin",
	"internal/store Store.Delete":             "the chaos harness's store wipe (internal/node tests) removes entries through it",
}

// interfaceMethods are method names a standard-library interface calls, so a
// method of that name is called without its name appearing at the call.
var interfaceMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

// TestEveryFunctionHasACaller: production code is what a binary runs. Every
// top-level function or method in a non-test file, exported or not, is named
// somewhere in a non-test file other than its own declaration and body —
// benchmark/ counts as a caller, not as code to check — unless
// noCallerAllowed keeps it. The scan is by name, so a method is called when
// any value's method of that name is.
func TestEveryFunctionHasACaller(t *testing.T) {
	type decl struct {
		where, name string
		pos         token.Pos
		body        *ast.BlockStmt
	}
	fset := token.NewFileSet()
	var decls []decl
	uses := map[string][]token.Pos{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
		dir := filepath.ToSlash(filepath.Dir(p))
		if dir == "benchmark" || strings.HasPrefix(dir, "benchmark/") {
			return nil
		}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name, where := fd.Name.Name, dir+" "+fd.Name.Name
			if fd.Recv == nil && (name == "main" || name == "init") || fd.Recv != nil && interfaceMethods[name] {
				continue
			}
			if fd.Recv != nil {
				where = dir + " " + recvName(fd.Recv.List[0].Type) + "." + name
			}
			decls = append(decls, decl{where, name, fd.Name.Pos(), fd.Body})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var uncalled []string
	for _, d := range decls {
		called := false
		for _, p := range uses[d.name] {
			if p != d.pos && (d.body == nil || p < d.body.Pos() || p > d.body.End()) {
				called = true
				break
			}
		}
		if !called {
			uncalled = append(uncalled, d.where)
		}
	}
	sort.Strings(uncalled)
	t.Logf("functions with no non-test caller: %d", len(uncalled))
	for _, w := range uncalled {
		if why, ok := noCallerAllowed[w]; ok {
			t.Logf("  %s (kept: %s)", w, why)
		} else {
			t.Errorf("%s has no non-test caller: delete it, or move it beside the tests that use it", w)
		}
	}
	for w := range noCallerAllowed {
		if i := sort.SearchStrings(uncalled, w); i == len(uncalled) || uncalled[i] != w {
			t.Errorf("noCallerAllowed keeps %s, which is gone or has a non-test caller now: drop the entry", w)
		}
	}
}

// recvName is the type name of a method's receiver: T for T, *T, T[P] and *T[P].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
