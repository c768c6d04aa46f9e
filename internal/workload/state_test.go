// Package workload_test holds the rules every workload package keeps.
package workload_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoPackageLevelCache holds the workloads to "no package-level cache":
// what sibling branches share lives in an mdf.Memo their graph's operators
// capture, and dies with the graph. It parses the non-test Go files of every
// package under internal/workload and fails on a package-level var that is
// or holds a map, a sync.Mutex, a sync.RWMutex or a sync.Map: by its type,
// by its initial value (a literal, make, new or &), or through a struct,
// array or type declared in the package.
func TestNoPackageLevelCache(t *testing.T) {
	files := map[string][]*ast.File{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files[filepath.Dir(path)] = append(files[filepath.Dir(path)], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("parsed %d workload packages, want the four workloads at least", len(files))
	}
	for _, pkg := range files {
		c := checker{types: map[string]ast.Expr{}}
		for _, f := range pkg {
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
					for _, s := range gd.Specs {
						ts := s.(*ast.TypeSpec)
						c.types[ts.Name.Name] = ts.Type
					}
				}
			}
		}
		for _, f := range pkg {
			c.sync = syncName(f)
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, s := range gd.Specs {
					vs := s.(*ast.ValueSpec)
					what := c.typ(vs.Type, nil)
					for _, v := range vs.Values {
						if what == "" {
							what = c.value(v)
						}
					}
					if what != "" {
						t.Errorf("%s: package-level var %s holds a %s: share it through an mdf.Memo the graph owns",
							fset.Position(vs.Pos()), vs.Names[0].Name, what)
					}
				}
			}
		}
	}
}

// checker finds the state a package-level var holds in one package.
type checker struct {
	types map[string]ast.Expr // the package's type declarations
	sync  string              // the name a file imports sync under
}

// syncName returns the name f imports "sync" under, or "" if it does not.
func syncName(f *ast.File) string {
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "sync" {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return "sync"
		}
	}
	return ""
}

// typ names the banned state the type expression e is or holds, or returns
// "". seen guards the package's recursive types.
func (c checker) typ(e ast.Expr, seen map[string]bool) string {
	switch e := e.(type) {
	case *ast.MapType:
		return "map"
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok && c.sync != "" && x.Name == c.sync {
			switch e.Sel.Name {
			case "Mutex", "RWMutex", "Map":
				return "sync." + e.Sel.Name
			}
		}
	case *ast.StarExpr:
		return c.typ(e.X, seen)
	case *ast.ParenExpr:
		return c.typ(e.X, seen)
	case *ast.ArrayType:
		return c.typ(e.Elt, seen)
	case *ast.StructType:
		for _, field := range e.Fields.List {
			if what := c.typ(field.Type, seen); what != "" {
				return what
			}
		}
	case *ast.Ident:
		if decl, ok := c.types[e.Name]; ok && !seen[e.Name] {
			if seen == nil {
				seen = map[string]bool{}
			}
			seen[e.Name] = true
			return c.typ(decl, seen)
		}
	}
	return ""
}

// value names the banned state the initial value v makes, or returns "".
func (c checker) value(v ast.Expr) string {
	switch v := v.(type) {
	case *ast.CompositeLit:
		return c.typ(v.Type, nil)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return c.value(v.X)
		}
	case *ast.ParenExpr:
		return c.value(v.X)
	case *ast.CallExpr:
		if fn, ok := v.Fun.(*ast.Ident); ok && (fn.Name == "make" || fn.Name == "new") && len(v.Args) > 0 {
			return c.typ(v.Args[0], nil)
		}
	}
	return ""
}
