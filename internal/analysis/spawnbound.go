package analysis

import (
	"go/ast"
	"go/types"
)

// checkSpawnBound requires every `go` statement to be tied to a visible
// join, in the spirit of leakcheck's package-level pairing: a goroutine the
// package cannot wait for is a goroutine that outlives drains, leaks under
// test, and hides panics.
//
// A spawn is considered joined when the spawned body — the function literal
// of `go func(){...}()`, or the declaration of a same-package function or
// method (`go s.loop()`) — signals completion in a way the package
// observably consumes:
//
//   - it calls Done on a sync.WaitGroup and the package calls Wait (on the
//     same WaitGroup object when resolvable, any WaitGroup otherwise), or
//   - it sends on or closes a channel object that the package receives
//     from (<-ch, range ch, or a select case).
//
// Spawns of functions from other packages are opaque and reported.
func checkSpawnBound(pkg *Package, files []*File) []Finding {
	if pkg.Info == nil || pkg.TypesPkg == nil {
		return nil
	}
	decls := funcDeclIndex(pkg)

	// Pass 1: collect the package's join sinks — received-from channel
	// objects and waited-on WaitGroup objects.
	recvObjs := map[types.Object]bool{}
	waitObjs := map[types.Object]bool{}
	anyWait := false
	for _, f := range files {
		file := f
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.UnaryExpr:
				if x.Op.String() == "<-" {
					if obj := refObj(file, x.X); obj != nil {
						recvObjs[obj] = true
					}
				}
			case *ast.RangeStmt:
				if isChanType(file.TypeOf(x.X)) {
					if obj := refObj(file, x.X); obj != nil {
						recvObjs[obj] = true
					}
				}
			case *ast.CallExpr:
				fn, recv := resolveCall(file, x)
				if fn != nil && callKey(fn) == "sync.WaitGroup.Wait" {
					anyWait = true
					if obj := refObj(file, recv); obj != nil {
						waitObjs[obj] = true
					}
				}
			}
			return true
		})
	}

	// Pass 2: judge each go statement.
	var out []Finding
	for _, f := range files {
		file := f
		ast.Inspect(f.AST, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			var body *ast.BlockStmt
			calleeName := ""
			if lit, isLit := ast.Unparen(g.Call.Fun).(*ast.FuncLit); isLit {
				body = lit.Body
			} else if fn, _ := resolveCall(file, g.Call); fn != nil {
				calleeName = callKey(fn)
				if d, samePkg := decls[fn]; samePkg {
					body = d.Body
				}
			}
			if joined, why := spawnJoined(file, pkg, body, recvObjs, waitObjs, anyWait); !joined {
				msg := "go statement has no visible join: " + why
				if body == nil && calleeName != "" {
					msg = "go statement spawns " + calleeName + " from another package; its join is not visible here — wrap it in a closure that signals a WaitGroup or channel"
				}
				out = append(out, Finding{File: file.Path, Line: file.line(g.Pos()), Msg: msg})
			}
			return true
		})
	}
	return out
}

// spawnJoined scans a spawned body for a completion signal the package
// consumes. The second return explains the failure for the diagnostic.
func spawnJoined(f *File, pkg *Package, body *ast.BlockStmt, recvObjs, waitObjs map[types.Object]bool, anyWait bool) (bool, string) {
	if body == nil {
		return false, "the goroutine must signal completion (WaitGroup.Done, or a channel send/close received elsewhere in the package)"
	}
	joined := false
	signalled := false
	ast.Inspect(body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch x := n.(type) {
		case *ast.SendStmt:
			signalled = true
			if obj := refObj(f, x.Chan); obj != nil && recvObjs[obj] {
				joined = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "close" && len(x.Args) == 1 {
					signalled = true
					if obj := refObj(f, x.Args[0]); obj != nil && recvObjs[obj] {
						joined = true
					}
					return true
				}
			}
			fn, recv := resolveCall(f, x)
			if fn != nil && callKey(fn) == "sync.WaitGroup.Done" {
				signalled = true
				// When the WaitGroup object is resolvable, demand a Wait on
				// that same object; the any-Wait fallback only covers
				// receivers we cannot resolve (e.g. chained expressions).
				if obj := refObj(f, recv); obj != nil {
					if waitObjs[obj] {
						joined = true
					}
				} else if anyWait {
					joined = true
				}
			}
		}
		return !joined
	})
	switch {
	case joined:
		return true, ""
	case signalled:
		return false, "the goroutine signals completion but nothing in this package waits for it (no matching WaitGroup.Wait or channel receive)"
	default:
		return false, "the goroutine never signals completion (no WaitGroup.Done, channel send, or close)"
	}
}
