package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// emitNames are function or method names whose call inside a range-over-map
// loop emits externally visible output in iteration order (trace events, CSV
// rows, log lines).
var emitNames = map[string]bool{
	"trace": true, "Emit": true, "Record": true, "Printf": true, "Println": true, "Print": true,
	"Fprintf": true, "Fprintln": true, "Fprint": true, "WriteString": true,
}

// checkMapOrder flags order-dependent work inside `range` over a map. Go
// randomises map-iteration order on purpose, so anything that observes the
// order — appending to a slice, sending on a channel, emitting trace or CSV
// output, accumulating floats (addition is not associative) — injects
// nondeterminism exactly where the simulator must replay bit-identically.
//
// The canonical collect-then-sort idiom stays legal: an append finding is
// dropped when a later statement of the same block passes the slice to a
// call whose name contains "sort" (sort.Slice, sort.Strings, a sortX
// helper). Integer accumulation and map-to-map copies are commutative and
// never flagged.
func checkMapOrder(f *File, _ Config) []Finding {
	var out []Finding
	for _, decl := range f.AST.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		walkStmts(fn.Body.List, nil, func(rs *ast.RangeStmt, following []ast.Stmt) {
			out = append(out, checkOneRange(f, rs, following)...)
		})
	}
	return out
}

// walkStmts traverses every statement list reachable from list, calling
// visit for each range statement with the statements that execute after it:
// the rest of its own block followed by the tails of every enclosing block
// of the same function (a sort there still runs before the collected slice
// is observable). Function literals start a fresh tail — a sort after the
// closure does not necessarily run after the closure's loop.
func walkStmts(list []ast.Stmt, tail []ast.Stmt, visit func(*ast.RangeStmt, []ast.Stmt)) {
	for i, stmt := range list {
		rest := append(append([]ast.Stmt(nil), list[i+1:]...), tail...)
		if rs, ok := stmt.(*ast.RangeStmt); ok {
			visit(rs, rest)
		}
		for _, child := range childStmtLists(stmt) {
			walkStmts(child, rest, visit)
		}
		ast.Inspect(stmt, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				walkStmts(fl.Body.List, nil, visit)
				return false
			}
			// Child statement lists are walked explicitly above; stop at
			// them so their statements are not visited twice.
			_, isStmtOwner := n.(ast.Stmt)
			return n == stmt || !isStmtOwner
		})
	}
}

// childStmtLists returns the statement lists directly nested in one
// statement.
func childStmtLists(stmt ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		out = append(out, s.List)
	case *ast.IfStmt:
		out = append(out, s.Body.List)
		if s.Else != nil {
			out = append(out, childStmtLists(s.Else)...)
		}
	case *ast.ForStmt:
		out = append(out, s.Body.List)
	case *ast.RangeStmt:
		out = append(out, s.Body.List)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.LabeledStmt:
		out = append(out, childStmtLists(s.Stmt)...)
	}
	return out
}

// checkOneRange analyses a single range statement; following are the
// statements after it in the same block, searched for the sort that
// legitimises collected appends.
func checkOneRange(f *File, rs *ast.RangeStmt, following []ast.Stmt) []Finding {
	if !isMapExpr(f, rs.X) {
		return nil
	}
	local := localNames(rs)

	type appendFinding struct {
		finding Finding
		slice   string
	}
	var appends []appendFinding
	var out []Finding
	add := func(pos token.Pos, msg string) {
		out = append(out, Finding{File: f.Path, Line: f.line(pos), Msg: msg})
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.SendStmt:
			add(st.Pos(), "sends on a channel in map-iteration order; iterate over sorted keys")
		case *ast.AssignStmt:
			if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
				return true
			}
			lhs := st.Lhs[0]
			switch st.Tok {
			case token.ASSIGN, token.DEFINE:
				name, ok := appendTarget(lhs, st.Rhs[0])
				if ok && !local[name] {
					appends = append(appends, appendFinding{
						slice: name,
						finding: Finding{
							File: f.Path, Line: f.line(st.Pos()),
							Msg: fmt.Sprintf("appends to %q in map-iteration order; iterate over sorted keys or sort the result afterwards", name),
						},
					})
				}
			case token.ADD_ASSIGN, token.SUB_ASSIGN:
				base, ok := baseIdent(lhs)
				if !ok || local[base] {
					return true
				}
				if isFloatExpr(f, lhs) {
					add(st.Pos(), fmt.Sprintf("accumulates floating-point values into %q in map-iteration order (float addition is not associative); iterate over sorted keys", base))
				}
			}
		case *ast.ExprStmt:
			call, ok := ast.Unparen(st.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := calleeName(call); ok && emitNames[name] {
				add(st.Pos(), fmt.Sprintf("%s emits output in map-iteration order; iterate over sorted keys", name))
			}
		}
		return true
	})

	for _, a := range appends {
		if !sortedAfter(following, a.slice) {
			out = append(out, a.finding)
		}
	}
	return out
}

// localNames returns the identifiers bound inside the range statement
// itself or defined within its body — appends into those cannot outlive an
// iteration in a way the caller observes.
func localNames(rs *ast.RangeStmt) map[string]bool {
	local := map[string]bool{}
	record := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			local[id.Name] = true
		}
	}
	if rs.Tok == token.DEFINE {
		if rs.Key != nil {
			record(rs.Key)
		}
		if rs.Value != nil {
			record(rs.Value)
		}
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				for _, lhs := range st.Lhs {
					record(lhs)
				}
			}
		case *ast.DeclStmt:
			if gd, ok := st.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, name := range vs.Names {
							local[name.Name] = true
						}
					}
				}
			}
		}
		return true
	})
	return local
}

// appendTarget matches `x = append(x, ...)` and returns x's base name.
func appendTarget(lhs, rhs ast.Expr) (string, bool) {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return "", false
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fun.Name != "append" {
		return "", false
	}
	lname, ok := baseIdent(lhs)
	if !ok {
		return "", false
	}
	aname, ok := baseIdent(call.Args[0])
	if !ok || aname != lname {
		return "", false
	}
	return lname, true
}

// baseIdent unwraps selectors and index expressions to the leftmost
// identifier: out, r.timeline, shares[n] all resolve to their base.
func baseIdent(e ast.Expr) (string, bool) {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v.Name, true
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return "", false
		}
	}
}

// calleeName extracts the called function or method name.
func calleeName(call *ast.CallExpr) (string, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name, true
	case *ast.SelectorExpr:
		return fun.Sel.Name, true
	}
	return "", false
}

// qualifiedCalleeName is calleeName with the receiver or package qualifier
// kept when it is a plain identifier: sort.Slice, s.Write.
func qualifiedCalleeName(call *ast.CallExpr) (string, bool) {
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return calleeName(call)
	}
	if x, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
		return x.Name + "." + fun.Sel.Name, true
	}
	return fun.Sel.Name, true
}

// sortedAfter reports whether a later statement passes the named slice to a
// sorting call ("sort" in the callee name, the slice anywhere in the
// arguments).
func sortedAfter(following []ast.Stmt, slice string) bool {
	for _, stmt := range following {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return true
			}
			name, ok := qualifiedCalleeName(call)
			if !ok || !strings.Contains(strings.ToLower(name), "sort") {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(an ast.Node) bool {
					if id, ok := an.(*ast.Ident); ok && id.Name == slice {
						found = true
					}
					return !found
				})
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
