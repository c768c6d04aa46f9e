package analysis

// This file is the shared plumbing for the concurrency rules (locksafety,
// goroutinecapture, ctxflow, spawnbound). The module is deliberately
// dependency-free, so instead of golang.org/x/tools/go/ssa the rules walk
// the typed ASTs directly: a structured, path-splitting statement walk
// (lockWalker in locksafety.go) stands in for a basic-block CFG, and the
// helpers here resolve the questions SSA would have answered — which
// function does this call reach, which variable object does this receiver
// expression denote, does this type transitively embed a lock. The walk is
// intra-procedural with one package-local may-block summary fixpoint
// (blockSummary), which is exactly the depth the repo's call shapes need:
// the service's step loop reaches engine.Run.Step through one *Locked
// helper, not an arbitrary chain.

import (
	"go/ast"
	"go/types"
)

// resolveCall resolves a call expression to the *types.Func it invokes and,
// for method calls, the receiver expression. Calls through function-typed
// variables (callbacks, context.CancelFunc) resolve to nil: the rules treat
// them as opaque.
func resolveCall(f *File, call *ast.CallExpr) (fn *types.Func, recv ast.Expr) {
	if f.Pkg == nil || f.Pkg.Info == nil {
		return nil, nil
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if sel := f.Pkg.Info.Selections[fun]; sel != nil {
			if m, ok := sel.Obj().(*types.Func); ok && sel.Kind() == types.MethodVal {
				return m, fun.X
			}
			return nil, nil
		}
		// Qualified identifier: pkg.Func.
		if m, ok := f.Pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return m, nil
		}
	case *ast.Ident:
		if m, ok := f.Pkg.Info.Uses[fun].(*types.Func); ok {
			return m, nil
		}
	}
	return nil, nil
}

// callKey renders a resolved function as "pkg.Func" or "pkg.Type.Method"
// using the package *name* (not path), so one config vocabulary covers the
// real module and the fixture tree alike.
func callKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	key := fn.Pkg().Name() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedRecv(sig.Recv().Type()); named != nil {
			return key + named.Obj().Name() + "." + fn.Name()
		}
	}
	return key + fn.Name()
}

// refObj resolves a receiver or operand expression to the stable variable
// object it denotes: a local/package variable for identifiers, the field
// object for selector chains (s.mu resolves to the mu field, shared across
// every method of the type). Index expressions and calls return nil — a
// per-element lock is not trackable without SSA and the rules skip it.
func refObj(f *File, e ast.Expr) types.Object {
	if f.Pkg == nil || f.Pkg.Info == nil {
		return nil
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return f.Pkg.Info.Uses[x]
	case *ast.SelectorExpr:
		if sel := f.Pkg.Info.Selections[x]; sel != nil {
			return sel.Obj()
		}
		return f.Pkg.Info.Uses[x.Sel]
	case *ast.StarExpr:
		return refObj(f, x.X)
	case *ast.UnaryExpr:
		return refObj(f, x.X)
	}
	return nil
}

// isNamedType reports whether t (after one pointer dereference) is the
// named type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == name
}

// isMutex reports a sync.Mutex or sync.RWMutex (possibly behind a pointer).
func isMutex(t types.Type) bool {
	return isNamedType(t, "sync", "Mutex") || isNamedType(t, "sync", "RWMutex")
}

// isContextType reports the context.Context interface.
func isContextType(t types.Type) bool { return isNamedType(t, "context", "Context") }

// isChanType reports a channel (possibly named).
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// funcDeclIndex maps each declared function of the package to its
// declaration, so rules can look one call level deep (a `go s.loop()`
// resolves to loop's body).
func funcDeclIndex(pkg *Package) map[*types.Func]*ast.FuncDecl {
	idx := map[*types.Func]*ast.FuncDecl{}
	if pkg.Info == nil {
		return idx
	}
	for _, f := range pkg.Files {
		if f.IsTest {
			continue
		}
		for _, d := range f.AST.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				idx[fn] = fd
			}
		}
	}
	return idx
}

// directlyBlocks reports whether a function body contains a blocking
// operation itself: a channel send/receive, a range over a channel, a
// select without a default clause, sync.WaitGroup.Wait, or a call named in
// cfg.BlockingCalls. sync.Cond.Wait is exempt — it releases the associated
// mutex while parked, which is the sanctioned step-loop idiom. Function
// literals are skipped: a closure's blocking belongs to the goroutine that
// runs it.
func directlyBlocks(f *File, body *ast.BlockStmt, blocking map[string]bool) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt, *ast.DeferStmt:
			// Spawning does not block, and deferred work runs at exit.
			return false
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if x.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if isChanType(f.TypeOf(x.X)) {
				found = true
			}
		case *ast.SelectStmt:
			if !selectHasDefault(x) {
				found = true
			}
		case *ast.CallExpr:
			if kind, _ := classifyBlockingCall(f, x, blocking); kind != "" {
				found = true
			}
		}
		return !found
	})
	return found
}

// selectHasDefault reports whether a select statement has a default clause
// (making it non-blocking).
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if comm, ok := c.(*ast.CommClause); ok && comm.Comm == nil {
			return true
		}
	}
	return false
}

// classifyBlockingCall reports whether a call is a known blocking call:
// "wait" for sync.WaitGroup.Wait, "call" for a cfg.BlockingCalls entry.
// The returned key names the callee for diagnostics.
func classifyBlockingCall(f *File, call *ast.CallExpr, blocking map[string]bool) (kind, key string) {
	fn, _ := resolveCall(f, call)
	if fn == nil {
		return "", ""
	}
	k := callKey(fn)
	if k == "sync.WaitGroup.Wait" {
		return "wait", k
	}
	if blocking[k] {
		return "call", k
	}
	return "", ""
}

// blockSummary computes the package-local may-block fixpoint: a function
// may block when its body directly blocks or when it calls a same-package
// function that may block. One level of indirection through function
// values is not chased.
func blockSummary(pkg *Package, cfg Config) map[*types.Func]bool {
	decls := funcDeclIndex(pkg)
	blocks := map[*types.Func]bool{}
	calls := map[*types.Func][]*types.Func{}
	for _, f := range pkg.Files {
		if f.IsTest {
			continue
		}
		for _, d := range f.AST.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if directlyBlocks(f, fd.Body, blockingSet(cfg)) {
				blocks[fn] = true
			}
			file := f
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok {
					if callee, _ := resolveCall(file, call); callee != nil {
						if _, samePkg := decls[callee]; samePkg {
							calls[fn] = append(calls[fn], callee)
						}
					}
				}
				return true
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, callees := range calls {
			if blocks[fn] {
				continue
			}
			for _, c := range callees {
				if blocks[c] {
					blocks[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return blocks
}

// blockingSet turns cfg.BlockingCalls into a lookup set.
func blockingSet(cfg Config) map[string]bool {
	set := make(map[string]bool, len(cfg.BlockingCalls))
	for _, k := range cfg.BlockingCalls {
		set[k] = true
	}
	return set
}
