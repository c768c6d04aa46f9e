package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// leakPairs are the acquire methods and the release methods that must
// balance them somewhere in the same package.
var leakPairs = []struct{ acquire, release string }{
	{"Put", "Discard"},
	{"Pin", "Unpin"},
	// Durable state handles: whoever opens a journal or checkpoint store
	// must close it somewhere in the same package.
	{"Open", "Close"},
}

// checkLeakCheck enforces acquire/release balance for paired resource
// methods (Allocator.Put/Discard, Pin/Unpin). The granularity is the
// package: a package that acquires through a method pair's acquire side must
// release through its release side at least once, otherwise every acquire
// site is reported. This deliberately does not attempt path-sensitive
// matching — the engine releases on code paths far from the acquire — but it
// catches the bug class that actually happened: a package that pins
// partitions and never unpins any, leaving memory unevictable forever.
//
// Matching is type-accurate via go/types method selections: only calls of
// methods declared on a named type from another package count, and the
// receiver type must declare both sides of the pair. Interface receivers
// participate too, so a pair reached through an interface's method set is
// matched on that interface as on a concrete type. The declaring package
// itself is exempt (the allocator's own tests and helpers legitimately call
// Put without Discard).
func checkLeakCheck(pkg *Package, files []*File) []Finding {
	if pkg.Info == nil || pkg.TypesPkg == nil {
		return nil
	}
	type key struct {
		pair int
		typ  string
	}
	acquires := map[key][]Finding{}
	released := map[key]bool{}
	for _, f := range files {
		path := f.Path
		lineOf := f.line
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection := pkg.Info.Selections[sel]
			if selection == nil || selection.Kind() != types.MethodVal {
				return true
			}
			named := namedRecv(selection.Recv())
			if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg() == pkg.TypesPkg {
				return true
			}
			tname := named.Obj().Pkg().Name() + "." + named.Obj().Name()
			for i, pair := range leakPairs {
				switch sel.Sel.Name {
				case pair.acquire:
					if hasMethod(named, pair.release) {
						k := key{i, tname}
						acquires[k] = append(acquires[k], Finding{
							File: path, Line: lineOf(call.Pos()),
							Msg: fmt.Sprintf("%s.%s acquired here is never released: no %s call on %s anywhere in this package", tname, pair.acquire, pair.release, tname),
						})
					}
				case pair.release:
					released[key{i, tname}] = true
				}
			}
			return true
		})
	}
	var out []Finding
	for k, sites := range acquires {
		if !released[k] {
			out = append(out, sites...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// namedRecv unwraps a selection receiver to its named type, dereferencing
// one level of pointer.
func namedRecv(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// hasMethod reports whether the named type's method set declares a method
// with the given name. Concrete types are looked up through their pointer
// method set (value and pointer receivers alike); interfaces are looked up
// directly, since a pointer-to-interface has no methods at all.
func hasMethod(named *types.Named, name string) bool {
	recv := types.Type(types.NewPointer(named))
	if types.IsInterface(named) {
		recv = named
	}
	obj, _, _ := types.LookupFieldOrMethod(recv, true, named.Obj().Pkg(), name)
	_, ok := obj.(*types.Func)
	return ok
}
