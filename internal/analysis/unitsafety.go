package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// checkUnitSafety enforces the simulator's unit discipline around the named
// quantity types sim.VTime (virtual seconds) and sim.Bytes (data volume).
// Three sub-checks:
//
//  1. Naming: exported function parameters/results and exported struct
//     fields whose name announces a unit (t, dur, elapsed, ...Sec for time;
//     bytes, capacity, ...Bytes for volume) must be declared with the unit
//     type, not plain float64/int64. A raw number in an exported signature
//     is exactly where units get lost across a package boundary.
//  2. Mixing: no arithmetic expression may combine a VTime-carrying operand
//     with a Bytes-carrying one. Units are traced through parentheses,
//     unary operators and conversions to basic types — so laundering a
//     quantity through float64(...) does not hide it — but not through
//     other calls, which are treated as unit boundaries.
//  3. Conversions: converting an expression that carries one unit into the
//     other unit type is flagged. `sim.VTime(float64(b) / bw)` is a
//     dimensional error everywhere except the cluster cost model.
//
// Sub-checks 2 and 3 are suspended inside cfg.UnitExemptDirs: the cluster
// cost model is the one sanctioned place where bytes become seconds
// (bandwidth division), and Bytes.MB() is the sanctioned way to obtain a
// dimensionless magnitude — its method call is a unit boundary by rule.
func checkUnitSafety(f *File, cfg Config) []Finding {
	out := unitNameFindings(f)
	if !underAnyDir(f.Path, cfg.UnitExemptDirs) {
		out = append(out, unitFlowFindings(f)...)
	}
	return out
}

// Identifier vocabulary of the naming sub-check. Matching is on the
// lowercased name: exact names for the short conventional spellings,
// suffixes for compounds (readySec, CheckpointedBytes).
var (
	timeExactNames = map[string]bool{
		"t": true, "now": true, "start": true, "end": true, "ready": true,
		"dur": true, "elapsed": true, "deadline": true, "vt": true,
	}
	timeSuffixes   = []string{"sec", "secs", "seconds", "duration", "time"}
	byteExactNames = map[string]bool{"bytes": true, "capacity": true}
)

// unitWanted maps an identifier and its declared raw type to the unit type
// the name calls for, or "" when the pair is unsuspicious.
func unitWanted(name, rawType string) string {
	l := strings.ToLower(name)
	switch rawType {
	case "float64":
		if timeExactNames[l] {
			return "sim.VTime"
		}
		for _, s := range timeSuffixes {
			if strings.HasSuffix(l, s) {
				return "sim.VTime"
			}
		}
	case "int64":
		if byteExactNames[l] || strings.HasSuffix(l, "bytes") {
			return "sim.Bytes"
		}
	}
	return ""
}

// unitNameFindings implements the naming sub-check over a file's exported
// declarations. It is purely syntactic (the raw type must be spelled
// float64/int64 in the source), so it also works without type information.
func unitNameFindings(f *File) []Finding {
	var out []Finding
	flagList := func(kind, owner string, fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			id, ok := field.Type.(*ast.Ident)
			if !ok {
				continue
			}
			for _, name := range field.Names {
				if !ast.IsExported(name.Name) && kind == "field" {
					continue
				}
				if want := unitWanted(name.Name, id.Name); want != "" {
					out = append(out, Finding{
						File: f.Path, Line: f.line(name.Pos()),
						Msg: fmt.Sprintf("%s %q of %s is a plain %s; declare it %s so the unit travels with the value", kind, name.Name, owner, id.Name, want),
					})
				}
			}
		}
	}
	for _, decl := range f.AST.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			owner := "exported func " + d.Name.Name
			flagList("parameter", owner, d.Type.Params)
			flagList("result", owner, d.Type.Results)
		case *ast.GenDecl:
			if d.Tok != token.TYPE {
				continue
			}
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					flagList("field", "exported struct "+ts.Name.Name, st.Fields)
				}
			}
		}
	}
	return out
}

// unitFlowFindings implements the mixing and conversion sub-checks, which
// need resolved types; files without type information yield nothing.
func unitFlowFindings(f *File) []Finding {
	if f.Pkg == nil || f.Pkg.Info == nil {
		return nil
	}
	var out []Finding
	ast.Inspect(f.AST, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.BinaryExpr:
			switch e.Op {
			case token.ADD, token.SUB, token.MUL, token.QUO, token.REM:
			default:
				return true
			}
			ux, uy := exprUnit(f, e.X), exprUnit(f, e.Y)
			if ux != "" && uy != "" && ux != uy {
				out = append(out, Finding{
					File: f.Path, Line: f.line(e.OpPos),
					Msg: fmt.Sprintf("expression mixes %s and %s operands; cross units only through the cluster cost model or Bytes.MB", ux, uy),
				})
			}
		case *ast.CallExpr:
			if len(e.Args) != 1 || !isTypeConversion(f, e) {
				return true
			}
			target := unitTypeName(f.TypeOf(e))
			if target == "" {
				return true
			}
			other := "VTime"
			if target == "VTime" {
				other = "Bytes"
			}
			if containsUnit(f, e.Args[0], other) {
				out = append(out, Finding{
					File: f.Path, Line: f.line(e.Pos()),
					Msg: fmt.Sprintf("conversion to %s wraps an expression carrying %s; only the cluster cost model may turn one unit into the other", target, other),
				})
			}
		}
		return true
	})
	return out
}

// unitTypeName reports which unit a resolved type is: "VTime", "Bytes", or
// "" for everything else. Units are recognised by the named type's name so
// the rule works for any package that declares them (the simulator's
// internal/sim, the test fixtures' own sim package).
func unitTypeName(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	name := named.Obj().Name()
	if name != "VTime" && name != "Bytes" {
		return ""
	}
	if _, ok := named.Underlying().(*types.Basic); !ok {
		return ""
	}
	return name
}

// isTypeConversion reports whether call is a type conversion rather than a
// function or method call.
func isTypeConversion(f *File, call *ast.CallExpr) bool {
	if f.Pkg == nil || f.Pkg.Info == nil {
		return false
	}
	tv, ok := f.Pkg.Info.Types[ast.Unparen(call.Fun)]
	return ok && tv.IsType()
}

// exprUnit returns the unit an expression carries: its own type's unit, or
// the unit visible through parentheses, unary operators and conversions to
// non-unit basic types. Calls (including methods like Bytes.MB) and binary
// expressions are boundaries: their results carry only their own type.
func exprUnit(f *File, e ast.Expr) string {
	e = ast.Unparen(e)
	if u := unitTypeName(f.TypeOf(e)); u != "" {
		return u
	}
	switch v := e.(type) {
	case *ast.UnaryExpr:
		return exprUnit(f, v.X)
	case *ast.CallExpr:
		if len(v.Args) == 1 && isTypeConversion(f, v) {
			return exprUnit(f, v.Args[0])
		}
	}
	return ""
}

// containsUnit reports whether the expression tree carries the given unit
// anywhere reachable through parentheses, unary and binary operators, and
// type conversions. Non-conversion calls terminate the search: a method or
// function result is a new quantity with its own unit.
func containsUnit(f *File, e ast.Expr, want string) bool {
	e = ast.Unparen(e)
	if unitTypeName(f.TypeOf(e)) == want {
		return true
	}
	switch v := e.(type) {
	case *ast.UnaryExpr:
		return containsUnit(f, v.X, want)
	case *ast.BinaryExpr:
		return containsUnit(f, v.X, want) || containsUnit(f, v.Y, want)
	case *ast.CallExpr:
		if len(v.Args) == 1 && isTypeConversion(f, v) {
			return containsUnit(f, v.Args[0], want)
		}
	}
	return false
}
