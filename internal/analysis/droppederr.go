package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// checkDroppedErr flags error results assigned to the blank identifier.
// A silently dropped error hides exactly the failures the resilience layer
// is supposed to surface; callers must handle, return or log them. Result
// types come from go/types, so the check resolves methods, cross-package
// calls and function values alike; calls without type information (test
// files, unresolved packages) are skipped, so every finding points at a
// value that really is an error.
func checkDroppedErr(f *File, _ Config) []Finding {
	var out []Finding
	ast.Inspect(f.AST, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		flag := func(call *ast.CallExpr) {
			out = append(out, Finding{
				File: f.Path,
				Line: f.line(st.Pos()),
				Msg:  fmt.Sprintf("error result of %s assigned to _; handle or return it", calleeLabel(f, call)),
			})
		}
		if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
			// a, _ := f(...): the blank positions of one multi-value call.
			call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			results, resolved := callResults(f, call)
			if !resolved || len(results) != len(st.Lhs) {
				return true
			}
			for i, lhs := range st.Lhs {
				if isBlank(lhs) && isErrorType(results[i]) {
					flag(call)
					break
				}
			}
			return true
		}
		if len(st.Rhs) == len(st.Lhs) {
			// _ = f(...), possibly in a parallel assignment.
			for i, lhs := range st.Lhs {
				if !isBlank(lhs) {
					continue
				}
				call, ok := ast.Unparen(st.Rhs[i]).(*ast.CallExpr)
				if !ok {
					continue
				}
				results, resolved := callResults(f, call)
				if resolved && len(results) == 1 && isErrorType(results[0]) {
					flag(call)
				}
			}
		}
		return true
	})
	return out
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// callResults returns the resolved result types of a call expression. The
// second return is false when no type information is available for it.
func callResults(f *File, call *ast.CallExpr) ([]types.Type, bool) {
	t := f.TypeOf(call)
	if t == nil {
		return nil, false
	}
	if tup, ok := t.(*types.Tuple); ok {
		out := make([]types.Type, tup.Len())
		for i := range out {
			out[i] = tup.At(i).Type()
		}
		return out, true
	}
	return []types.Type{t}, true
}

// calleeLabel renders the call target for the diagnostic.
func calleeLabel(f *File, call *ast.CallExpr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), call.Fun); err != nil || buf.Len() == 0 {
		return "call"
	}
	return buf.String()
}
