package spec

import (
	"reflect"
	"strings"
	"testing"
)

func mustHash(t *testing.T, doc string) Hash {
	t.Helper()
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, doc)
	}
	return s.HashReport().Spec
}

// baseDoc is the sensitivity-table baseline: a trunk op, an explore with
// two parameterised branches, and an iterate.
const baseDoc = `{
  "name": "base",
  "source": {"rows": 100, "partitions": 4, "virtualBytes": 1048576, "distribution": "normal", "seed": 7},
  "pipeline": [
    {"op": {"name": "std", "fn": "standardize"}},
    {"explore": {
      "name": "e",
      "branches": [
        {"label": "lo", "params": {"limit": 0.5}},
        {"label": "hi", "params": {"limit": 1.5}}
      ],
      "body": [{"op": {"name": "f", "fn": "filter-absless", "paramKey": "limit"}}],
      "choose": {"evaluator": "size", "selector": {"kind": "max"}}
    }},
    {"iterate": {"name": "it", "rounds": 3, "op": {"name": "sq", "fn": "square"}}}
  ]
}`

// edit returns baseDoc with its first old replaced by new.
func edit(t *testing.T, old, new string) string {
	t.Helper()
	if !strings.Contains(baseDoc, old) {
		t.Fatalf("baseline does not contain %q", old)
	}
	return strings.Replace(baseDoc, old, new, 1)
}

// hashDecision is the recorded answer to "does the content hash read this
// field?", with two documents that differ in that field alone.
type hashDecision struct {
	hashed bool
	a, b   string
}

// hashDecisions records the decision for every field of every struct a Spec
// is built from, keyed "Type.Field". The types that only hold others — Step,
// the pipeline and body slices, Choose.Selector — are walked into, not
// decided.
func hashDecisions(t *testing.T) map[string]hashDecision {
	in := func(a, b string) hashDecision { return hashDecision{true, a, b} }
	out := func(a, b string) hashDecision { return hashDecision{false, a, b} }
	ed := func(old, new string) string { return edit(t, old, new) }
	const std = `{"name": "std", "fn": "standardize"}`
	const choose = `"choose": {"evaluator": "size", "selector": {"kind": "max"}}`
	sel := func(s string) string { return ed(`"selector": {"kind": "max"}`, `"selector": `+s) }
	return map[string]hashDecision{
		"Spec.SchemaVersion":              out(baseDoc, ed(`"name": "base"`, `"schema_version": "1.0.0", "name": "base"`)),
		"Spec.Name":                       out(baseDoc, ed(`"name": "base"`, `"name": "renamed"`)),
		"Spec.Allow":                      out(baseDoc, ed(`"name": "base"`, `"name": "base", "allow": ["dupbranch"]`)),
		"Source.Rows":                     in(baseDoc, ed(`"rows": 100`, `"rows": 200`)),
		"Source.Partitions":               in(baseDoc, ed(`"partitions": 4`, `"partitions": 5`)),
		"Source.VirtualBytes":             in(baseDoc, ed(`"virtualBytes": 1048576`, `"virtualBytes": 2097152`)),
		"Source.Distribution":             in(baseDoc, ed(`"distribution": "normal"`, `"distribution": "uniform"`)),
		"Source.Seed":                     in(baseDoc, ed(`"seed": 7`, `"seed": 8`)),
		"OpStep.Name":                     out(baseDoc, ed(`"name": "std"`, `"name": "zzz"`)),
		"OpStep.Fn":                       in(baseDoc, ed(`"fn": "standardize"`, `"fn": "normalize"`)),
		"OpStep.A":                        in(ed(std, `{"name": "std", "fn": "affine", "a": 2}`), ed(std, `{"name": "std", "fn": "affine", "a": 3}`)),
		"OpStep.B":                        in(ed(std, `{"name": "std", "fn": "affine", "b": 2}`), ed(std, `{"name": "std", "fn": "affine", "b": 3}`)),
		"OpStep.Limit":                    in(ed(std, `{"name": "std", "fn": "filter-less", "limit": 2}`), ed(std, `{"name": "std", "fn": "filter-less", "limit": 3}`)),
		"OpStep.ParamKey":                 in(baseDoc, ed(`"paramKey": "limit"`, `"paramKey": "other"`)),
		"OpStep.CostPerMB":                in(baseDoc, ed(`"fn": "standardize"`, `"fn": "standardize", "costPerMB": 0.5`)),
		"OpStep.FixedCost":                in(baseDoc, ed(`"fn": "standardize"`, `"fn": "standardize", "fixedCost": 2`)),
		"IterateStep.Name":                out(baseDoc, ed(`"name": "it"`, `"name": "loop"`)),
		"IterateStep.Rounds":              in(baseDoc, ed(`"rounds": 3`, `"rounds": 4`)),
		"IterateStep.DivergeAboveMeanAbs": in(baseDoc, ed(`"rounds": 3`, `"rounds": 3, "divergeAboveMeanAbs": 10`)),
		"ExploreStep.Name":                out(baseDoc, ed(`"name": "e"`, `"name": "other"`)),
		"Branch.Label":                    out(baseDoc, ed(`"label": "lo"`, `"label": "low"`)),
		"Branch.Hint":                     in(baseDoc, ed(`"label": "lo"`, `"label": "lo", "hint": 9`)),
		"Branch.Params":                   in(baseDoc, ed(`"limit": 0.5`, `"limit": 0.6`)),
		"Choose.Evaluator":                in(baseDoc, ed(`"evaluator": "size"`, `"evaluator": "ratio"`)),
		"Choose.Monotone":                 in(baseDoc, ed(choose, `"choose": {"evaluator": "size", "monotone": true, "selector": {"kind": "max"}}`)),
		"Choose.Convex":                   in(baseDoc, ed(choose, `"choose": {"evaluator": "size", "convex": true, "selector": {"kind": "max"}}`)),
		"Choose.CostPerMB":                in(baseDoc, ed(choose, `"choose": {"evaluator": "size", "costPerMB": 0.5, "selector": {"kind": "max"}}`)),
		"Selector.Kind":                   in(baseDoc, sel(`{"kind": "min"}`)),
		"Selector.K":                      in(sel(`{"kind": "topk", "k": 1}`), sel(`{"kind": "topk", "k": 2}`)),
		"Selector.Bound":                  in(sel(`{"kind": "threshold", "bound": 1}`), sel(`{"kind": "threshold", "bound": 2}`)),
		"Selector.AtMost":                 in(sel(`{"kind": "threshold", "bound": 1}`), sel(`{"kind": "threshold", "bound": 1, "atMost": true}`)),
		"Selector.Lo":                     in(sel(`{"kind": "interval", "lo": 1, "hi": 5}`), sel(`{"kind": "interval", "lo": 2, "hi": 5}`)),
		"Selector.Hi":                     in(sel(`{"kind": "interval", "lo": 1, "hi": 5}`), sel(`{"kind": "interval", "lo": 1, "hi": 6}`)),
	}
}

// specFields walks a Spec's type and returns every field it decides, as
// "Type.Field": structs, pointers to them and slices of them are walked
// into; every other field is a leaf.
func specFields() map[string]bool {
	fields := make(map[string]bool)
	seen := make(map[reflect.Type]bool)
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || seen[typ] {
			return
		}
		seen[typ] = true
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			elem := f.Type
			for elem.Kind() == reflect.Pointer || elem.Kind() == reflect.Slice {
				elem = elem.Elem()
			}
			if elem.Kind() == reflect.Struct {
				walk(elem)
				continue
			}
			fields[typ.Name()+"."+f.Name] = true
		}
	}
	walk(reflect.TypeOf(Spec{}))
	return fields
}

// TestHashSensitivityTable makes the hash-inclusion decision total: every
// field a spec document can set has a recorded decision, and each decision
// holds — an excluded field's two documents hash alike, an included field's
// differently. A new field without a decision fails here. Spellings that are
// not fields — whitespace, key order, branch order, defaults written out,
// dead values — are pinned after.
func TestHashSensitivityTable(t *testing.T) {
	decisions := hashDecisions(t)
	fields := specFields()
	for f := range fields {
		if _, ok := decisions[f]; !ok {
			t.Errorf("%s: no recorded decision whether the content hash reads it", f)
		}
	}
	for f, d := range decisions {
		if !fields[f] {
			t.Errorf("%s: a decision for a field a spec does not have", f)
			continue
		}
		if d.a == d.b {
			t.Errorf("%s: the two documents are the same", f)
		}
		if moved := mustHash(t, d.a) != mustHash(t, d.b); moved != d.hashed {
			t.Errorf("%s: hashed=%v, but editing it moved the hash: %v", f, d.hashed, moved)
		}
	}

	base := mustHash(t, baseDoc)
	same := map[string]string{
		"whitespace collapsed": strings.Join(strings.Fields(baseDoc), " "),
		"key order swapped": strings.Replace(baseDoc,
			`"rows": 100, "partitions": 4`, `"partitions": 4, "rows": 100`, 1),
		"default materialised": edit(t, `"fn": "filter-absless", "paramKey": "limit"`,
			`"fn": "filter-absless", "paramKey": "limit", "costPerMB": 0.001`),
		"dead param added": edit(t, `"params": {"limit": 0.5}`, `"params": {"limit": 0.5, "unused": 9}`),
		"dead k added":     edit(t, `"selector": {"kind": "max"}`, `"selector": {"kind": "max", "k": 3}`),
	}
	for name, doc := range same {
		if got := mustHash(t, doc); got != base {
			t.Errorf("%s: hash moved %s -> %s; spelling edits must not change the hash", name, base, got)
		}
	}
	reordered := edit(t, `{"label": "lo", "params": {"limit": 0.5}},
        {"label": "hi", "params": {"limit": 1.5}}`, `{"label": "hi", "params": {"limit": 1.5}},
        {"label": "lo", "params": {"limit": 0.5}}`)
	if mustHash(t, reordered) == base {
		t.Error("branch order: hash did not move; the order branches run in is semantic")
	}
}

// TestHashParamKeyResolution: a filter written through ParamKey hashes the
// same as the literal parameter, because the engine computes the same
// result for both.
func TestHashParamKeyResolution(t *testing.T) {
	indirect := `{"source":{"rows":10},"pipeline":[{"explore":{"name":"e",
	  "branches":[{"label":"a","params":{"l":1}},{"label":"b","params":{"l":2}}],
	  "body":[{"op":{"name":"f","fn":"filter-less","paramKey":"l"}}],
	  "choose":{"selector":{"kind":"max"}}}}]}`
	literalParams := `{"source":{"rows":10},"pipeline":[{"explore":{"name":"e",
	  "branches":[{"label":"a","params":{"l":1}},{"label":"b","params":{"l":2}}],
	  "body":[{"op":{"name":"f","fn":"filter-less","paramKey":"l","limit":99}}],
	  "choose":{"selector":{"kind":"max"}}}}]}`
	if mustHash(t, indirect) != mustHash(t, literalParams) {
		t.Error("unused literal default under ParamKey changed the hash")
	}
}

// TestHashReportSubgraphs pins the structure of the hash report: chain
// prefixes for every step, branch hashes seeded by the incoming prefix,
// and equal bodies under equal params colliding.
func TestHashReportSubgraphs(t *testing.T) {
	s, err := Parse([]byte(baseDoc))
	if err != nil {
		t.Fatal(err)
	}
	r := s.HashReport()
	if r.Spec == 0 {
		t.Error("zero spec hash")
	}
	// source + 3 trunk steps + 2 branches × 1 body step = 6 chain points.
	if len(r.Chains) != 6 {
		t.Fatalf("chain points = %d, want 6: %+v", len(r.Chains), r.Chains)
	}
	if r.Chains[0].Path != "source" || r.Chains[1].Path != "pipeline[0]" {
		t.Errorf("unexpected chain paths: %+v", r.Chains[:2])
	}
	if len(r.Branches) != 2 {
		t.Fatalf("branch hashes = %d, want 2", len(r.Branches))
	}
	if r.Branches[0].Hash == r.Branches[1].Hash {
		t.Error("branches with different params must not collide")
	}

	// Two branches with identical resolved params collide.
	dup := strings.Replace(baseDoc, `"params": {"limit": 1.5}`, `"params": {"limit": 0.5}`, 1)
	sd, err := Parse([]byte(dup))
	if err != nil {
		t.Fatal(err)
	}
	rd := sd.HashReport()
	if rd.Branches[0].Hash != rd.Branches[1].Hash {
		t.Error("branches with identical resolved bodies must collide")
	}
}

// TestHashPinned pins one concrete hash value so accidental changes to the
// hash-inclusion rules are loud. If a deliberate format change moves it,
// update the constant and call it out in the change description.
func TestHashPinned(t *testing.T) {
	doc := `{"source":{"rows":5},"pipeline":[{"op":{"name":"x"}}]}`
	const want = "6f9e6bbc062ab9c3"
	got := mustHash(t, doc).String()
	if got != want {
		t.Errorf("pinned hash moved: got %s, want %s", got, want)
	}
}

// TestOpChainsAlignWithCompile pins the OpChains contract: one chain
// hash per compiled operator, in the builder's operator-creation order,
// with trunk positions equal to the recorded step chain hashes. This is
// the index the durable checkpoint store keys on, so drift here silently
// re-keys every checkpoint.
func TestOpChainsAlignWithCompile(t *testing.T) {
	s, err := Parse([]byte(baseDoc))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	r := s.HashReport()
	g, err := s.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ops := g.Ops()
	if len(r.OpChains) != len(ops) {
		t.Fatalf("OpChains has %d entries, compiled graph has %d operators", len(r.OpChains), len(ops))
	}
	chainAt := func(path string) Hash {
		t.Helper()
		for _, c := range r.Chains {
			if c.Path == path {
				return c.Hash
			}
		}
		t.Fatalf("no chain recorded at %s", path)
		return 0
	}
	// Creation order: source, trunk op, explore, branch0 body, branch1
	// body, choose, iterate rounds 0..2.
	if r.OpChains[0] != chainAt("source") {
		t.Fatalf("OpChains[0] = %v, want source chain %v", r.OpChains[0], chainAt("source"))
	}
	if r.OpChains[1] != chainAt("pipeline[0]") {
		t.Fatalf("OpChains[1] = %v, want trunk op chain", r.OpChains[1])
	}
	// The explore operator forwards its input.
	if r.OpChains[2] != chainAt("pipeline[0]") {
		t.Fatalf("explore OpChain = %v, want incoming prefix", r.OpChains[2])
	}
	if r.OpChains[3] != chainAt("pipeline[1].explore.branch[0].body[0]") {
		t.Fatalf("branch0 body OpChain = %v, want its recorded chain", r.OpChains[3])
	}
	if r.OpChains[4] != chainAt("pipeline[1].explore.branch[1].body[0]") {
		t.Fatalf("branch1 body OpChain = %v, want its recorded chain", r.OpChains[4])
	}
	if r.OpChains[5] != chainAt("pipeline[1]") {
		t.Fatalf("choose OpChain = %v, want explore step chain", r.OpChains[5])
	}
	// The final iterate round's chain is the step's identity; earlier
	// rounds get distinct forked chains.
	if r.OpChains[8] != chainAt("pipeline[2]") {
		t.Fatalf("last iterate round OpChain = %v, want step chain", r.OpChains[8])
	}
	if r.OpChains[6] == r.OpChains[7] || r.OpChains[7] == r.OpChains[8] {
		t.Fatalf("iterate rounds share chains: %v %v %v", r.OpChains[6], r.OpChains[7], r.OpChains[8])
	}
	// Parameterised branches must resolve to distinct body chains.
	if r.OpChains[3] == r.OpChains[4] {
		t.Fatal("parameterised branch bodies hash identically")
	}
}
