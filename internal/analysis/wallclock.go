package analysis

import (
	"fmt"
	"go/ast"
)

// wallclockFuncs are the package-level time functions that read or wait on
// the wall clock.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

// checkWallclock flags references to wall-clock time functions in the
// simulator packages. The discrete-event simulation runs entirely on
// virtual time (cluster resource timelines, Run.Now); a single time.Now or
// time.Sleep makes completion times depend on the host machine and breaks
// bit-identical replay.
func checkWallclock(f *File, _ Config) []Finding {
	timeName := ""
	for name, path := range f.Imports {
		if path == "time" {
			timeName = name
		}
	}
	if timeName == "" {
		return nil
	}
	var out []Finding
	ast.Inspect(f.AST, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		x, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || x.Name != timeName || !wallclockFuncs[sel.Sel.Name] {
			return true
		}
		out = append(out, Finding{
			File: f.Path,
			Line: f.line(sel.Pos()),
			Msg: fmt.Sprintf("%s.%s reads the wall clock; simulator packages must use virtual time only",
				timeName, sel.Sel.Name),
		})
		return true
	})
	return out
}
