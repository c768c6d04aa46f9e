package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// checkGoroutineCapture inspects every `go` statement that spawns a
// function literal and reports unsynchronized captured writes: the closure
// assigns to a variable declared outside it with no synchronization edge in
// sight. A write is considered published when the closure locks a mutex,
// sends on or closes a channel after doing its work, or signals a
// sync.WaitGroup.Done — each establishes a happens-before edge to the
// reader. Without one, the write races with any read outside the goroutine.
//
// A closure that reads an enclosing loop's variable is not reported: the
// module's `go 1.22` line scopes loop variables per iteration, so the
// shared-variable capture cannot occur. `go f(x)` with a named function is
// safe by construction: arguments are evaluated at spawn time in the parent
// goroutine.
func checkGoroutineCapture(f *File, cfg Config) []Finding {
	if f.Pkg == nil || f.Pkg.Info == nil {
		return nil
	}
	var out []Finding
	// A spawned closure's body is not descended into; the spawn's arguments
	// are evaluated in the parent goroutine and may hold further spawns.
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(node ast.Node) bool {
			g, ok := node.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				out = append(out, checkSpawnedClosure(f, lit)...)
			}
			for _, a := range g.Call.Args {
				walk(a)
			}
			return false
		})
	}
	for _, d := range f.AST.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			walk(fd.Body)
		}
	}
	return out
}

// checkSpawnedClosure reports unsynchronized captured writes inside one
// spawned closure.
func checkSpawnedClosure(f *File, lit *ast.FuncLit) []Finding {
	if closureHasSyncEdge(f, lit) {
		return nil
	}
	var out []Finding
	reportedWrite := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		var targets []ast.Expr
		switch x := n.(type) {
		case *ast.FuncLit:
			if x != lit {
				return false // nested closures judged when they are spawned
			}
		case *ast.AssignStmt:
			targets = x.Lhs
		case *ast.IncDecStmt:
			targets = []ast.Expr{x.X}
		}
		for _, t := range targets {
			id, ok := ast.Unparen(t).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := f.Pkg.Info.Uses[id] // a := write would be Defs: local, fine
			if obj == nil || reportedWrite[obj] {
				continue
			}
			v, isVar := obj.(*types.Var)
			if !isVar || v.IsField() {
				continue
			}
			if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
				continue // declared inside the closure (params included)
			}
			reportedWrite[obj] = true
			out = append(out, Finding{
				File: f.Path, Line: f.line(id.Pos()), Rule: RuleGoroutineCapture,
				Msg: fmt.Sprintf("goroutine writes captured variable %s with no synchronization edge (mutex, channel send/close, or WaitGroup.Done); the write races with readers outside the goroutine", obj.Name()),
			})
		}
		return true
	})
	return out
}

// closureHasSyncEdge reports whether a spawned closure establishes any
// happens-before edge that could publish its writes: locking a mutex,
// sending on or closing a channel, or signalling WaitGroup.Done.
func closureHasSyncEdge(f *File, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if _, isBuiltin := f.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "close" {
					found = true
					return false
				}
			}
			fn, _ := resolveCall(f, x)
			if fn == nil {
				return true
			}
			switch callKey(fn) {
			case "sync.Mutex.Lock", "sync.RWMutex.Lock", "sync.RWMutex.RLock", "sync.WaitGroup.Done":
				found = true
			}
		}
		return !found
	})
	return found
}
