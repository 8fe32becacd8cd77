package cdfpoison_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOnlyHooks are the internal functions that only tests call on
// purpose, keyed by package directory and name (Recv.Name for methods).
var testOnlyHooks = map[string]string{
	"internal/serve Plane.Goroutines":     "leak witness: the clean-shutdown test counts the plane's live readers",
	"internal/pla Index.VerifyErrorBound": "test oracle: the property, fuzz and inflation tests check Build's eps bound",
	"internal/blackbox Verify":            "test oracle: replays known keys through inferred segments against the oracle",
	"internal/btree Tree.checkInvariants": "structural oracle: the B-Tree tests check ordering, occupancy and size",
	"internal/bench PerfCellKeys":         "lisbench's baseline-coverage test, in another package, lists the perf cells",
}

// testOnlyOptions are the option fields that only tests set on purpose,
// keyed by package directory and Type.Field.
var testOnlyOptions = map[string]string{
	"internal/bench Options.Trials": "the perf tests cap each cell at one iteration",
}

// TestNoTestOnlyExports fails on any function or method declared under
// internal/ that no non-test code reaches: code that only tests run. It
// type-checks every non-test .go file of the tree, perfbench/ included,
// and counts a function or method as reached when non-test code outside
// its own body refers to it (a generic method through its origin), or
// when it implements an interface method that non-test code refers to. A
// method with the name and signature of a method of fmt.Stringer, error or
// sort.Interface counts as reached: the standard library calls those. An
// interface method is reached only when something refers to it.
func TestNoTestOnlyExports(t *testing.T) {
	pkgs := checkedTree(t)
	reportUnreached(t, deadFuncs(pkgs), testOnlyHooks,
		"is reached by no non-test code; delete it, or move it into a _test.go file")
}

// TestNoTestOnlyOptions fails on any exported field of an internal/ struct
// named *Options or *Config that no non-test code outside the field's own
// package sets, as a key of a struct literal or as an assignment target:
// a knob that only tests turn.
func TestNoTestOnlyOptions(t *testing.T) {
	pkgs := checkedTree(t)
	reportUnreached(t, unsetOptions(pkgs), testOnlyOptions,
		"is set by no non-test code outside its package; delete it, or make its default a constant")
}

func reportUnreached(t *testing.T, found map[string]token.Pos, allow map[string]string, what string) {
	t.Helper()
	for _, key := range sortedKeys(found) {
		if _, ok := allow[key]; !ok {
			_, name, _ := strings.Cut(key, " ")
			t.Errorf("%s: %s %s", srcFset.Position(found[key]), name, what)
		}
	}
	for key := range allow {
		if _, ok := found[key]; !ok {
			t.Errorf("allowlisted %q is gone or now has a non-test user; drop it from the allowlist", key)
		}
	}
}

// srcFset positions every file the gates parse, the standard library's
// included, which stdlib type-checks from source on first import.
var (
	srcFset = token.NewFileSet()
	stdlib  = importer.ForCompiler(srcFset, "source", nil)
)

// loadTree type-checks the repository once for both gates.
var loadTree = sync.OnceValues(func() ([]*checkedPackage, error) {
	files := map[string]string{}
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		files[filepath.ToSlash(p)] = string(src)
		return err
	})
	if err != nil {
		return nil, err
	}
	return checkTree("cdfpoison", files)
})

func checkedTree(t *testing.T) []*checkedPackage {
	t.Helper()
	pkgs, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// A checkedPackage is one package of the tree, type-checked from its
// non-test files.
type checkedPackage struct {
	dir   string // slash path from the module root, "." for the root
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// treeLoader resolves the module's own import paths to its parsed
// directories and every other path to the standard library.
type treeLoader struct {
	module  string
	dirs    map[string][]*ast.File // directory -> parsed non-test files
	checked map[string]*checkedPackage
	order   []*checkedPackage
}

// checkTree type-checks every package of a module from its non-test
// sources, files mapping a slash path from the module root to content
// (_test.go files are skipped). perfbench/ resolves as the module path
// plus its directory, which is also its own module's path.
func checkTree(module string, files map[string]string) ([]*checkedPackage, error) {
	l := &treeLoader{module: module, dirs: map[string][]*ast.File{}, checked: map[string]*checkedPackage{}}
	paths := make([]string, 0, len(files))
	for p := range files {
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	for _, p := range paths {
		f, err := parser.ParseFile(srcFset, p, files[p], parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		dir := path.Dir(p)
		l.dirs[dir] = append(l.dirs[dir], f)
	}
	dirs := make([]string, 0, len(l.dirs))
	for dir := range l.dirs {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if _, err := l.Import(path.Join(module, dir)); err != nil {
			return nil, err
		}
	}
	return l.order, nil
}

func (l *treeLoader) Import(importPath string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(importPath, l.module+"/")
	if importPath == l.module {
		dir, ok = ".", true
	}
	if _, mine := l.dirs[dir]; !ok || !mine {
		return stdlib.Import(importPath)
	}
	if p := l.checked[dir]; p != nil {
		return p.pkg, nil
	}
	p := &checkedPackage{dir: dir, files: l.dirs[dir], info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	var err error
	conf := types.Config{Importer: l}
	if p.pkg, err = conf.Check(importPath, srcFset, p.files, p.info); err != nil {
		return nil, err
	}
	l.checked[dir] = p
	l.order = append(l.order, p)
	return p.pkg, nil
}

// deadFuncs returns the functions, methods and interface methods declared
// under internal/ that TestNoTestOnlyExports's rules leave unreached,
// keyed by package directory and name (Recv.Name for methods).
func deadFuncs(pkgs []*checkedPackage) map[string]token.Pos {
	type decl struct {
		key      string
		pos, end token.Pos // the declaration; a use inside it is a self-reference
	}
	decls := map[*types.Func]decl{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.Name != "init" {
						decls[p.info.Defs[d.Name].(*types.Func)] = decl{p.dir + " " + funcName(d), d.Pos(), d.End()}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						ts, ok := s.(*ast.TypeSpec)
						if !ok {
							continue
						}
						it, ok := ts.Type.(*ast.InterfaceType)
						if !ok {
							continue
						}
						for _, m := range it.Methods.List {
							for _, name := range m.Names {
								decls[p.info.Defs[name].(*types.Func)] = decl{p.dir + " " + ts.Name.Name + "." + name.Name, name.Pos(), name.End()}
							}
						}
					}
				}
			}
		}
	}

	reached := map[*types.Func]bool{}
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if d, ok := decls[fn]; ok && d.pos <= id.Pos() && id.Pos() < d.end {
				continue
			}
			reached[fn] = true
		}
	}

	// A concrete method is reached through every interface method it
	// implements that non-test code calls (generic types are skipped:
	// Implements is undefined for them). The standard library calls
	// String, Error, Len, Less and Swap through interfaces no source here
	// names, so a method with one of their signatures counts as reached.
	type ifaceMethod struct {
		iface *types.Interface
		name  string
	}
	var called []ifaceMethod
	for fn := range reached {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			called = append(called, ifaceMethod{recv.Type().Underlying().(*types.Interface), fn.Name()})
		}
	}
	std := stdMethods()
	for fn := range decls {
		recv := fn.Type().(*types.Signature).Recv()
		if m := std[fn.Name()]; m != nil && recv != nil && !types.IsInterface(recv.Type()) && types.Identical(fn.Type(), m.Type()) {
			reached[fn] = true
		}
	}
	for _, p := range pkgs {
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			for _, m := range called {
				if !types.Implements(named, m.iface) && !types.Implements(types.NewPointer(named), m.iface) {
					continue
				}
				if obj, _, _ := types.LookupFieldOrMethod(named, true, p.pkg, m.name); obj != nil {
					reached[obj.(*types.Func).Origin()] = true
				}
			}
		}
	}

	dead := map[string]token.Pos{}
	for fn, d := range decls {
		if !reached[fn] {
			dead[d.key] = d.pos
		}
	}
	return dead
}

// stdMethods are the methods of fmt.Stringer, error and sort.Interface,
// by name.
func stdMethods() map[string]*types.Func {
	ifaces := []types.Type{types.Universe.Lookup("error").Type()}
	for _, name := range []string{"fmt.Stringer", "sort.Interface"} {
		pkgPath, typ, _ := strings.Cut(name, ".")
		pkg, err := stdlib.Import(pkgPath)
		if err != nil {
			panic(err)
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(typ).Type())
	}
	methods := map[string]*types.Func{}
	for _, t := range ifaces {
		iface := t.Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			methods[iface.Method(i).Name()] = iface.Method(i)
		}
	}
	return methods
}

// unsetOptions returns the exported fields of the internal/ structs named
// *Options or *Config that no non-test code outside the field's own
// package sets, keyed by package directory and Type.Field.
func unsetOptions(pkgs []*checkedPackage) map[string]token.Pos {
	fields := map[*types.Var]string{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			if !strings.HasSuffix(name, "Options") && !strings.HasSuffix(name, "Config") {
				continue
			}
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f] = p.dir + " " + name + "." + f.Name()
				}
			}
		}
	}

	set := map[*types.Var]bool{}
	for _, p := range pkgs {
		mark := func(id *ast.Ident) {
			if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != p.pkg {
				set[v.Origin()] = true
			}
		}
		target := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				mark(sel.Sel)
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						mark(id)
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(n.X)
				}
				return true
			})
		}
	}

	unset := map[string]token.Pos{}
	for f, key := range fields {
		if !set[f] {
			unset[key] = f.Pos()
		}
	}
	return unset
}

// funcName is Name for a function and Recv.Name for a method.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if gen, ok := typ.(*ast.IndexExpr); ok { // generic receiver T[P]
		typ = gen.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// TestNoTestOnlyRules pins each liveness rule of the two gates on small
// in-memory modules: internal/a declares, cmd uses.
func TestNoTestOnlyRules(t *testing.T) {
	for _, tc := range []struct {
		name          string
		files         map[string]string
		funcs, fields []string
	}{{
		name: "dead method sharing a live method's name",
		files: map[string]string{
			"internal/a/a.go": "package a\ntype A struct{}\nfunc (A) Add() {}\ntype B struct{}\nfunc (B) Add() {}\n",
			"cmd/main.go":     "package main\nimport \"m/internal/a\"\nfunc main() { a.A{}.Add() }\n",
		},
		funcs: []string{"internal/a B.Add"},
	}, {
		name: "method reached only through a called interface method",
		files: map[string]string{
			"internal/a/a.go": "package a\ntype Adder interface{ Add() }\ntype A struct{}\nfunc (*A) Add() {}\nfunc Run(x Adder) { x.Add() }\n",
			"cmd/main.go":     "package main\nimport \"m/internal/a\"\nfunc main() { a.Run(&a.A{}) }\n",
		},
	}, {
		name: "uncalled interface method and its implementation",
		files: map[string]string{
			"internal/a/a.go": "package a\ntype Fitter interface{ Fit(); FitParallel() }\ntype F struct{}\nfunc (F) Fit() {}\nfunc (F) FitParallel() {}\nfunc Run(f Fitter) { f.Fit() }\n",
			"cmd/main.go":     "package main\nimport \"m/internal/a\"\nfunc main() { a.Run(a.F{}) }\n",
		},
		funcs: []string{"internal/a F.FitParallel", "internal/a Fitter.FitParallel"},
	}, {
		name: "methods shaped like the standard library's String, Error and Len",
		files: map[string]string{
			"internal/a/a.go": "package a\ntype K int\nfunc (K) String() string { return \"k\" }\nfunc (K) Error() string { return \"k\" }\n" +
				"func (K) Len() int { return 0 }\nfunc (K) Less(i int) bool { return false }\nfunc Zero() K { return 0 }\n",
			"cmd/main.go": "package main\nimport \"m/internal/a\"\nfunc main() { println(a.Zero()) }\n",
		},
		funcs: []string{"internal/a K.Less"}, // not sort.Interface's Less(i, j int) bool
	}, {
		name: "recursion alone reaches nothing; a generic method is reached through its origin",
		files: map[string]string{
			"internal/a/a.go": "package a\nfunc F(n int) int { if n == 0 { return 0 }; return F(n - 1) }\ntype Box[T any] struct{ v T }\nfunc (b Box[T]) Get() T { return b.v }\n",
			"cmd/main.go":     "package main\nimport \"m/internal/a\"\nfunc main() { _ = a.Box[int]{}.Get() }\n",
		},
		funcs: []string{"internal/a F"},
	}, {
		name: "option fields set only in tests or inside their own package",
		files: map[string]string{
			"internal/a/a.go": "package a\ntype RunOptions struct{ Live, Assigned, Own, TestOnly int }\n" +
				"func Run(o RunOptions) int { if o.Own == 0 { o.Own = 8 }; return o.Live + o.Assigned + o.Own + o.TestOnly }\n",
			"cmd/main.go":      "package main\nimport \"m/internal/a\"\nfunc main() { o := a.RunOptions{Live: 1}; o.Assigned++; a.Run(o) }\n",
			"cmd/main_test.go": "package main\nimport \"m/internal/a\"\nfunc f() { a.Run(a.RunOptions{TestOnly: 1}) }\n",
		},
		fields: []string{"internal/a RunOptions.Own", "internal/a RunOptions.TestOnly"},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			pkgs, err := checkTree("m", tc.files)
			if err != nil {
				t.Fatal(err)
			}
			if got := sortedKeys(deadFuncs(pkgs)); !reflect.DeepEqual(got, tc.funcs) {
				t.Errorf("deadFuncs = %q, want %q", got, tc.funcs)
			}
			if got := sortedKeys(unsetOptions(pkgs)); !reflect.DeepEqual(got, tc.fields) {
				t.Errorf("unsetOptions = %q, want %q", got, tc.fields)
			}
		})
	}
}

func sortedKeys(m map[string]token.Pos) []string {
	var keys []string
	for key := range m {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}
