package cdfpoison_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
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

// TestNoTestOnlyExports fails on any function or method declared under
// internal/ whose name appears as no identifier in non-test code outside
// its own declaration: code that only tests run. It parses every non-test
// .go file of the tree, perfbench/ included. The check is by name, so it
// never flags live code, but it misses a dead function whose name some
// other code uses (a second Add, say); deletions are still reviewed by hand.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key string // package directory and funcName
		fn  *ast.FuncDecl
	}
	fset := token.NewFileSet()
	uses := map[string]int{} // identifier name -> occurrences in non-test code
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		dir := filepath.ToSlash(filepath.Dir(path))
		if !strings.HasPrefix(dir, "internal/") {
			return nil
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" {
				continue
			}
			decls = append(decls, decl{dir + " " + funcName(fn), fn})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no functions found under internal/ — the scanner is broken")
	}
	flagged := map[string]bool{}
	for _, d := range decls {
		name := d.fn.Name.Name
		inside := 0 // the declaration's own name, plus any recursive calls
		ast.Inspect(d.fn, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				inside++
			}
			return true
		})
		if uses[name] > inside {
			continue
		}
		flagged[d.key] = true
		if _, ok := testOnlyHooks[d.key]; !ok {
			t.Errorf("%s: %s is called by no non-test code; delete it, or move it into a _test.go file",
				fset.Position(d.fn.Pos()), funcName(d.fn))
		}
	}
	for key := range testOnlyHooks {
		if !flagged[key] {
			t.Errorf("test-only hook %q is gone or now has a non-test caller; drop it from testOnlyHooks", key)
		}
	}
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
