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

// testOnlyFields are the struct fields that only tests read on purpose,
// keyed by package directory and Type.Field.
var testOnlyFields = map[string]string{
	"internal/core ModificationStep.Removed":       "records the key the modification attack removed at each step",
	"internal/core ModificationStep.Inserted":      "records the key the modification attack inserted at each step (-1: none)",
	"internal/core GapConvexityReport.EndpointMax": "test oracle: Theorem 2's property test scales its float tolerance by it",
	"internal/index LookupResult.InBuffer":         "test oracle: the pipeline and single-model tests witness buffer hits with it",
	"internal/index LookupResult.Window":           "test oracle: ALEX's property test bounds each lookup's window by the Stats envelope",
	"internal/pla Index.epsilon":                   "the pla tests' Lookup bounds its last-mile search by the build's epsilon",
}

// TestNoTestOnlyExports fails on any function or method declared under
// internal/ that no non-test code reaches: code that only tests run. It
// type-checks every non-test .go file of the tree, perfbench/ included,
// and counts a function or method as reached when non-test code outside
// its own body refers to it (a generic method through its origin), or
// when it implements an interface method that non-test code refers to.
// The methods of error, fmt.Stringer and sort.Interface count as reached
// on a type that implements the whole interface, itself or through its
// pointer: the standard library calls those. An interface method is
// reached only when something refers to it.
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

// TestNoTestOnlyFields fails on any field of a struct type declared under
// internal/ that no non-test code reads: a value computed and written but
// never used. A field is read when non-test code selects it other than as
// the target of =, op=, ++ or --; a composite literal's keys and positional
// elements are writes. A field is also read when a whole value containing
// it is compared with == or !=, used as a map key, handed to
// reflect.DeepEqual or an encoding/json function, or printed by fmt
// without a String or Error method. Containment follows named types,
// arrays and struct fields, and for all but == and map keys, which compare
// a pointer and not what it points to, pointers, slices and maps too.
func TestNoTestOnlyFields(t *testing.T) {
	pkgs := checkedTree(t)
	reportUnreached(t, unreadFields(pkgs), testOnlyFields,
		"is read by no non-test code; delete it with the code that only computes it")
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

// loadTree type-checks the repository once for every gate.
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
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
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
	// Implements is undefined for them). The standard library calls the
	// methods of error, fmt.Stringer and sort.Interface through interfaces
	// no source here names, so their methods count as called: a type that
	// implements one of them whole reaches its methods.
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
	for _, iface := range stdInterfaces() {
		for i := 0; i < iface.NumMethods(); i++ {
			called = append(called, ifaceMethod{iface, iface.Method(i).Name()})
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

// stdInterfaces are error, fmt.Stringer and sort.Interface.
func stdInterfaces() []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, name := range []string{"fmt.Stringer", "sort.Interface"} {
		pkgPath, typ, _ := strings.Cut(name, ".")
		pkg, err := stdlib.Import(pkgPath)
		if err != nil {
			panic(err)
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(typ).Type().Underlying().(*types.Interface))
	}
	return ifaces
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

// unreadFields returns the fields of the struct types declared under
// internal/ that TestNoTestOnlyFields's rules leave unread, keyed by
// package directory and Type.Field. Embedded fields are skipped.
func unreadFields(pkgs []*checkedPackage) map[string]token.Pos {
	fields := map[*types.Var]string{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					if _, ok := ts.Type.(*ast.StructType); ok {
						st := p.info.Defs[ts.Name].Type().Underlying().(*types.Struct)
						for i := 0; i < st.NumFields(); i++ {
							if f := st.Field(i); !f.Embedded() {
								fields[f] = p.dir + " " + ts.Name.Name + "." + f.Name()
							}
						}
					}
				}
				return true
			})
		}
	}

	// readAll marks every field a value of type t holds. == and map keys
	// compare values, not what their pointers point to; reflect.DeepEqual,
	// encoding/json and fmt follow pointers, slices and maps too.
	type visit struct {
		t    types.Type
		deep bool
	}
	read := map[*types.Var]bool{}
	seen := map[visit]bool{}
	var readAll func(t types.Type, deep bool)
	readAll = func(t types.Type, deep bool) {
		if t == nil || seen[visit{t, deep}] {
			return
		}
		seen[visit{t, deep}] = true
		switch t := t.(type) {
		case *types.Named:
			readAll(t.Underlying(), deep)
		case *types.Alias:
			readAll(types.Unalias(t), deep)
		case *types.Array:
			readAll(t.Elem(), deep)
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				read[t.Field(i).Origin()] = true
				readAll(t.Field(i).Type(), deep)
			}
		case *types.Pointer:
			if deep {
				readAll(t.Elem(), deep)
			}
		case *types.Slice:
			if deep {
				readAll(t.Elem(), deep)
			}
		case *types.Map:
			if deep {
				readAll(t.Key(), deep)
				readAll(t.Elem(), deep)
			}
		}
	}
	for _, p := range pkgs {
		typeOf := func(e ast.Expr) types.Type { return p.info.Types[e].Type }
		written := map[ast.Expr]bool{}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						written[ast.Unparen(lhs)] = true
					}
				case *ast.IncDecStmt:
					written[ast.Unparen(n.X)] = true
				case *ast.SelectorExpr:
					if v, ok := p.info.Uses[n.Sel].(*types.Var); ok && v.IsField() && !written[n] {
						read[v.Origin()] = true
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						readAll(typeOf(n.X), false)
						readAll(typeOf(n.Y), false)
					}
				case *ast.CallExpr:
					fn := callee(p.info, n)
					if fn == nil || fn.Pkg() == nil {
						break
					}
					switch pkg := fn.Pkg().Path(); {
					case pkg == "reflect" && fn.Name() == "DeepEqual", pkg == "encoding/json":
						for _, arg := range n.Args {
							readAll(typeOf(arg), true)
						}
					case pkg == "fmt":
						for _, arg := range n.Args {
							if t := typeOf(arg); t != nil && !hasMethod(t, "String") && !hasMethod(t, "Error") {
								readAll(t, true)
							}
						}
					}
				}
				return true
			})
		}
		for _, tv := range p.info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				readAll(m.Key(), false)
			}
		}
	}

	unread := map[string]token.Pos{}
	for f, key := range fields {
		if !read[f] {
			unread[key] = f.Pos()
		}
	}
	return unread
}

// callee is the function or method a call names, or nil.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// hasMethod reports whether the method set of t has the named method.
func hasMethod(t types.Type, name string) bool {
	return types.NewMethodSet(t).Lookup(nil, name) != nil
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

// TestNoTestOnlyRules pins each liveness rule of the three gates on small
// in-memory modules: internal/a declares, cmd uses.
func TestNoTestOnlyRules(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		files                  map[string]string
		funcs, fields, unreads []string
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
		funcs: []string{"internal/a K.Len", "internal/a K.Less"}, // K is no sort.Interface
	}, {
		name: "Len, Less and Swap on a pointer receiver make a sort.Interface",
		files: map[string]string{
			"internal/a/a.go": "package a\ntype S []int\nfunc (s *S) Len() int { return len(*s) }\n" +
				"func (s *S) Less(i, j int) bool { return (*s)[i] < (*s)[j] }\nfunc (s *S) Swap(i, j int) { (*s)[i], (*s)[j] = (*s)[j], (*s)[i] }\n",
			"cmd/main.go": "package main\nimport \"m/internal/a\"\nfunc main() { _ = a.S{} }\n",
		},
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
	}, {
		name: "fields only written, or read only by a test",
		files: map[string]string{
			"internal/a/a.go": "package a\ntype R struct{ Lit, Pos, Add, Inc, Tested, Live int }\n" +
				"func Run() R { r := R{Lit: 1}; r = R{1, 2, 3, 4, 5, 6}; r.Add += 1; r.Inc++; return r }\n",
			"cmd/main.go":      "package main\nimport \"m/internal/a\"\nfunc main() { println(a.Run().Live) }\n",
			"cmd/main_test.go": "package main\nimport \"m/internal/a\"\nfunc f() int { return a.Run().Tested }\n",
		},
		unreads: []string{"internal/a R.Add", "internal/a R.Inc", "internal/a R.Lit", "internal/a R.Pos", "internal/a R.Tested"},
	}, {
		name: "fields read through selectors, instantiations and whole values",
		files: map[string]string{
			"internal/a/a.go": "package a\ntype Sel struct{ F int }\ntype Box[T any] struct{ V T }\n" +
				"type Deep struct{ F int }\ntype Eq struct{ F int }\ntype Key struct{ F int }\ntype Printed struct{ F int }\n",
			"cmd/main.go": "package main\nimport (\"fmt\"; \"reflect\"; \"m/internal/a\")\nfunc main() {\n" +
				"\tprintln(a.Sel{}.F, a.Box[int]{}.V)\n" +
				"\tprintln(reflect.DeepEqual([]a.Deep{}, []a.Deep{}), a.Eq{} == a.Eq{}, len(map[a.Key]int{}))\n" +
				"\tfmt.Println(a.Printed{})\n}\n",
		},
	}, {
		name: "pointer comparisons and Stringers read no fields",
		files: map[string]string{
			"internal/a/a.go": "package a\ntype P struct{ F int }\ntype S struct{ F int }\nfunc (S) String() string { return \"s\" }\n",
			"cmd/main.go": "package main\nimport (\"fmt\"; \"m/internal/a\")\n" +
				"func main() { p := &a.P{F: 1}; println(p == nil); fmt.Println(a.S{F: 1}) }\n",
		},
		unreads: []string{"internal/a P.F", "internal/a S.F"},
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
			if got := sortedKeys(unreadFields(pkgs)); !reflect.DeepEqual(got, tc.unreads) {
				t.Errorf("unreadFields = %q, want %q", got, tc.unreads)
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
