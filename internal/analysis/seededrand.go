package analysis

import (
	"fmt"
	"go/ast"
)

// seededRandFuncs are the top-level math/rand functions backed by the
// unseeded global source. Constructors (New, NewSource, NewZipf) stay
// allowed.
var seededRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true, "Int63": true, "Int63n": true,
	"Uint32": true, "Uint64": true, "Float32": true, "Float64": true,
	"NormFloat64": true, "ExpFloat64": true, "Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

// checkSeededRand flags calls to the top-level math/rand functions, which
// draw from the process-global source: their sequence depends on every
// other draw in the process, so results cannot be replayed from a seed.
// Randomness must come from an explicitly seeded *rand.Rand, threaded from
// options (stats.NewRNG). The constructors rand.New, rand.NewSource and
// rand.NewZipf remain allowed — they are how seeded generators are built.
func checkSeededRand(f *File, _ Config) []Finding {
	randNames := map[string]bool{}
	for name, path := range f.Imports {
		if path == "math/rand" || path == "math/rand/v2" {
			randNames[name] = true
		}
	}
	if len(randNames) == 0 {
		return nil
	}
	var out []Finding
	ast.Inspect(f.AST, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		x, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || !randNames[x.Name] || !seededRandFuncs[sel.Sel.Name] {
			return true
		}
		out = append(out, Finding{
			File: f.Path,
			Line: f.line(sel.Pos()),
			Msg: fmt.Sprintf("%s.%s uses the unseeded global source; thread a seeded *rand.Rand (stats.NewRNG) instead",
				x.Name, sel.Sel.Name),
		})
		return true
	})
	return out
}
