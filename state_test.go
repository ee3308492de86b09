package rdmasem_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// mutatingMethods are the method names that write through their receiver on
// the sync and sync/atomic types.
var mutatingMethods = map[string]bool{
	"Store": true, "Add": true, "Swap": true, "CompareAndSwap": true, "Lock": true,
}

// TestNoPackageMutableState keeps every package under internal/ free of
// package-level mutable state: runs are configured by values passed in, so
// one run can never leak into the next. A package-level var may be read
// (lookup tables, error values) but not assigned, incremented, index-assigned,
// address-taken or called through a mutating method inside any function, and
// it may not hold a sync or sync/atomic type.
func TestNoPackageMutableState(t *testing.T) {
	pkgs := map[string][]*ast.File{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
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
		if f.Name.Name != "main" {
			pkgs[filepath.Dir(path)] = append(pkgs[filepath.Dir(path)], f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	for dir, files := range pkgs {
		bad = append(bad, packageStateViolations(fset, dir, files)...)
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// packageStateViolations type-checks one package just far enough to resolve
// identifiers (imports stay unresolved) and reports every mutable use of a
// package-level var.
func packageStateViolations(fset *token.FileSet, dir string, files []*ast.File) []string {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Error: func(error) {}} // no Importer: every import fails, locals still resolve
	pkg, _ := conf.Check(dir, fset, files, info)

	var bad []string
	report := func(n ast.Node, name, what string) {
		bad = append(bad, fmt.Sprintf("%s: package-level var %s is %s", fset.Position(n.Pos()), name, what))
	}
	// pkgVar returns the package-level var at the root of a selector, index
	// or paren chain, or nil.
	pkgVar := func(e ast.Expr) *ast.Ident {
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.Ident:
				if v, ok := info.Uses[x].(*types.Var); ok && v.Parent() == pkg.Scope() {
					return x
				}
				return nil
			default:
				return nil
			}
		}
	}
	for _, f := range files {
		syncNames := syncImports(f)
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if vs.Type != nil && mentionsSync(vs.Type, syncNames) {
					report(vs, vs.Names[0].Name, "of a sync or sync/atomic type")
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body == nil {
				return false
			}
			ast.Inspect(body, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range s.Lhs {
						if id := pkgVar(lhs); id != nil {
							report(s, id.Name, "assigned in a function")
						}
					}
				case *ast.IncDecStmt:
					if id := pkgVar(s.X); id != nil {
						report(s, id.Name, "incremented in a function")
					}
				case *ast.UnaryExpr:
					if s.Op == token.AND {
						if id := pkgVar(s.X); id != nil {
							report(s, id.Name, "address-taken in a function")
						}
					}
				case *ast.CallExpr:
					if sel, ok := s.Fun.(*ast.SelectorExpr); ok && mutatingMethods[sel.Sel.Name] {
						if id := pkgVar(sel.X); id != nil {
							report(s, id.Name, "mutated through ."+sel.Sel.Name)
						}
					}
				}
				return true
			})
			return false
		})
	}
	return bad
}

// syncImports returns the names under which f imports sync and sync/atomic.
func syncImports(f *ast.File) map[string]bool {
	names := map[string]bool{}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if path != "sync" && path != "sync/atomic" {
			continue
		}
		name := filepath.Base(path)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		names[name] = true
	}
	return names
}

// mentionsSync reports whether a type expression names a type from one of
// the given package names, at any depth (struct fields, arrays, maps).
func mentionsSync(typ ast.Expr, syncNames map[string]bool) bool {
	found := false
	ast.Inspect(typ, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && syncNames[id.Name] {
				found = true
			}
		}
		return !found
	})
	return found
}

// TestPackageStateLintRules pins the lint's own rules on a synthetic
// package: each mutation kind is caught once, while reads, error values and
// locals that shadow a package var pass.
func TestPackageStateLintRules(t *testing.T) {
	const src = `package p

import (
	"errors"
	"sync"
	"sync/atomic"
)

var (
	table   = []int{1, 2}
	errBad  = errors.New("bad")
	n       int
	m       = map[string]int{}
	counter atomic.Int64
	mu      sync.Mutex
	tallies struct{ hits atomic.Uint64 }
)

func reads() (int, error) { return table[0] + len(m), errBad }

func shadow() {
	n := 1
	n++
	table := []int{}
	table[0] = n
}

func writes() {
	n = 1
	n++
	m["k"] = 2
	_ = &table
	counter.Store(1)
	tallies.hits.Add(1)
	mu.Lock()
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	got := packageStateViolations(fset, "p", []*ast.File{f})
	want := []string{
		"p.go:14:2: package-level var counter is of a sync or sync/atomic type",
		"p.go:15:2: package-level var mu is of a sync or sync/atomic type",
		"p.go:16:2: package-level var tallies is of a sync or sync/atomic type",
		"p.go:29:2: package-level var n is assigned in a function",
		"p.go:30:2: package-level var n is incremented in a function",
		"p.go:31:2: package-level var m is assigned in a function",
		"p.go:32:6: package-level var table is address-taken in a function",
		"p.go:33:2: package-level var counter is mutated through .Store",
		"p.go:34:2: package-level var tallies is mutated through .Add",
		"p.go:35:2: package-level var mu is mutated through .Lock",
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("lint findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
