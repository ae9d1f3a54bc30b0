package pgrid

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// noCallerAllowed names the functions that may stay in a non-test file with
// no non-test caller, each with the reason it is kept. An entry is
// "<directory> <Receiver.>Name", as TestEveryFunctionHasACaller prints it.
// The exported functions and methods of package pgrid need no entry: they
// are the public API by rule.
var noCallerAllowed = map[string]string{
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
// top-level function or method in a non-test file, exported or not, is used
// somewhere in a non-test file outside its own declaration and body —
// benchmark/ counts as a caller, not as code to check — unless it is an
// exported name of package pgrid (the public API) or noCallerAllowed keeps
// it. Uses are resolved by type, so a method is called when its own object
// is used, when an interface method of its name is used, or when a standard
// interface calls it; a method of another type that shares its name does
// not count.
func TestEveryFunctionHasACaller(t *testing.T) {
	uncalled, err := uncalledFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("functions with no non-test caller: %d", len(uncalled))
	for _, u := range uncalled {
		if u.api {
			t.Logf("  %s (kept: the pgrid public API)", u.where)
		} else if why, ok := noCallerAllowed[u.where]; ok {
			t.Logf("  %s (kept: %s)", u.where, why)
		} else {
			t.Errorf("%s has no non-test caller: delete it, or move it beside the tests that use it", u.where)
		}
	}
	for w := range noCallerAllowed {
		if !slices.ContainsFunc(uncalled, func(u uncalledFunc) bool { return u.where == w }) {
			t.Errorf("noCallerAllowed keeps %s, which is gone or has a non-test caller now: drop the entry", w)
		}
	}
	if len(noCallerAllowed) > 10 {
		t.Errorf("noCallerAllowed holds %d entries, more than 10: delete or move what no binary calls", len(noCallerAllowed))
	}
}

// TestCallerScanResolvesByType runs the scan over a small module: an
// uncalled function, and an uncalled method named like a used method of
// another type, are both reported; a method called through an interface, a
// standard-interface method, a method of a generic type and a function used
// only as a value are not.
func TestCallerScanResolvesByType(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"lib/lib.go": `package lib

type A struct{}

func (A) Snapshot() int { return 1 }

type B struct{}

func (B) Snapshot() int { return 2 }

func (B) String() string { return "b" }

type Namer interface{ Name() string }

type C struct{}

func (C) Name() string { return "c" }

type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

func Unused() {}

func recursive(n int) int {
	if n == 0 {
		return 0
	}
	return recursive(n - 1)
}

func Hook() func() { return hooked }

func hooked() {}
`,
		"cmd/app/main.go": `package main

import "example.com/m/lib"

func main() {
	var n lib.Namer = lib.C{}
	_ = n.Name()
	_ = lib.A{}.Snapshot()
	_ = lib.Box[int]{}.Get()
	lib.Hook()()
}
`,
	}
	for name, src := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	uncalled, err := uncalledFuncs(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range uncalled {
		got = append(got, u.where)
	}
	want := []string{"lib B.Snapshot", "lib Unused", "lib recursive"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("uncalled = %q, want %q", got, want)
	}
}

// uncalledFunc is one function the scan found no non-test use of.
type uncalledFunc struct {
	where string // "<directory> <Receiver.>Name"
	api   bool   // an exported name of the module's root package
}

var (
	stdFset     = token.NewFileSet()
	stdImporter types.Importer
	stdOnce     sync.Once
)

// uncalledFuncs type-checks every non-test package of the module rooted at
// root — the standard library from source, the module's own packages in
// import order so their objects are shared, build tags honoured — and
// returns the top-level functions and methods outside benchmark/ that no
// non-test file uses outside their own declaration, sorted.
func uncalledFuncs(root string) ([]uncalledFunc, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	stdOnce.Do(func() {
		// cgo files would run the C toolchain; the pure-Go fallbacks
		// declare the same API.
		build.Default.CgoEnabled = false
		stdImporter = importer.ForCompiler(stdFset, "source", nil)
	})
	ctxt := build.Default
	s := &callerScan{
		root: root, modPath: modPath, ctxt: &ctxt,
		pkgs:       map[string]*types.Package{},
		uses:       map[*types.Func][]token.Pos{},
		ifaceNames: map[string]bool{},
	}
	var dirs []string
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() {
			dirs = append(dirs, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, d := range dirs {
		rel, _ := filepath.Rel(root, d)
		if _, err := s.check(path.Join(modPath, filepath.ToSlash(rel))); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			return nil, err
		}
	}
	var out []uncalledFunc
	for _, fd := range s.decls {
		f := fd.obj
		name := f.Name()
		sig := f.Type().(*types.Signature)
		if sig.Recv() != nil && (interfaceMethods[name] || s.ifaceNames[name]) {
			continue
		}
		called := false
		for _, p := range s.uses[f] {
			if p < fd.decl.Pos() || p > fd.decl.End() {
				called = true
				break
			}
		}
		if called {
			continue
		}
		where, api := fd.dir+" "+name, fd.dir == "." && token.IsExported(name)
		if sig.Recv() != nil {
			recv := recvName(fd.decl.Recv.List[0].Type)
			where = fd.dir + " " + recv + "." + name
			api = api && token.IsExported(recv)
		}
		out = append(out, uncalledFunc{where, api})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].where < out[j].where })
	return out, nil
}

type callerScan struct {
	root, modPath string
	ctxt          *build.Context
	pkgs          map[string]*types.Package
	uses          map[*types.Func][]token.Pos
	ifaceNames    map[string]bool // names of interface methods some non-test file uses
	decls         []funcDecl
}

type funcDecl struct {
	dir  string
	decl *ast.FuncDecl
	obj  *types.Func
}

// Import makes the scan its own importer: a module package is checked on
// first import, everything else comes from the standard library's source.
func (s *callerScan) Import(p string) (*types.Package, error) {
	if p == s.modPath || strings.HasPrefix(p, s.modPath+"/") {
		return s.check(p)
	}
	return stdImporter.Import(p)
}

// check type-checks the non-test files of the module package p once,
// records every function it uses, and, outside benchmark/, every function
// it declares.
func (s *callerScan) check(p string) (*types.Package, error) {
	if pkg, ok := s.pkgs[p]; ok {
		return pkg, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(p, s.modPath), "/")
	if rel == "" {
		rel = "."
	}
	bp, err := s.ctxt.ImportDir(filepath.Join(s.root, filepath.FromSlash(rel)), 0)
	if err == nil && len(bp.GoFiles) == 0 {
		err = &build.NoGoError{Dir: bp.Dir} // test files only
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(stdFset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(p, stdFset, files, info)
	if err != nil {
		return nil, err
	}
	s.pkgs[p] = pkg
	for id, obj := range info.Uses {
		f, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		f = f.Origin()
		s.uses[f] = append(s.uses[f], id.Pos())
		if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			s.ifaceNames[f.Name()] = true
		}
	}
	if rel == "benchmark" || strings.HasPrefix(rel, "benchmark/") {
		return pkg, nil
	}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init") {
				continue
			}
			s.decls = append(s.decls, funcDecl{rel, fd, info.Defs[fd.Name].(*types.Func)})
		}
	}
	return pkg, nil
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(m), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
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
