package spec

import (
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

// TestHashSensitivityTable drives the acceptance table: hash-invariant
// edits (reordering, whitespace, metadata) against hash-changing edits
// (every semantic knob).
func TestHashSensitivityTable(t *testing.T) {
	base := mustHash(t, baseDoc)

	edit := func(old, new string) string {
		if !strings.Contains(baseDoc, old) {
			t.Fatalf("baseline does not contain %q", old)
		}
		return strings.Replace(baseDoc, old, new, 1)
	}

	same := map[string]string{
		"whitespace collapsed": strings.Join(strings.Fields(baseDoc), " "),
		"job renamed":          edit(`"name": "base"`, `"name": "renamed"`),
		"op renamed":           edit(`"name": "std"`, `"name": "zzz"`),
		"explore renamed":      edit(`"name": "e"`, `"name": "other"`),
		"branch relabeled":     edit(`"label": "lo"`, `"label": "low"`),
		"schema version added": strings.Replace(baseDoc, `"name": "base"`, `"schema_version": "1.0.0", "name": "base"`, 1),
		"allow metadata added": strings.Replace(baseDoc, `"name": "base"`, `"name": "base", "allow": ["dupbranch"]`, 1),
		"key order swapped": strings.Replace(baseDoc,
			`"rows": 100, "partitions": 4`, `"partitions": 4, "rows": 100`, 1),
		"default materialised": edit(`"fn": "filter-absless", "paramKey": "limit"`,
			`"fn": "filter-absless", "paramKey": "limit", "costPerMB": 0.001`),
		"dead param added": edit(`"params": {"limit": 0.5}`, `"params": {"limit": 0.5, "unused": 9}`),
		"paramkey inlined": edit(`"body": [{"op": {"name": "f", "fn": "filter-absless", "paramKey": "limit"}}],
      "choose": {"evaluator": "size", "selector": {"kind": "max"}}`,
			`"body": [{"op": {"name": "f", "fn": "filter-absless", "paramKey": "limit"}}],
      "choose": {"evaluator": "size", "selector": {"kind": "max", "k": 3}}`),
	}
	// A "max" selector ignores k, so materialising it must not move the
	// hash either — covered by "paramkey inlined" above (k is dead for max).
	for name, doc := range same {
		if got := mustHash(t, doc); got != base {
			t.Errorf("%s: hash moved %s -> %s; metadata edits must not change the hash", name, base, got)
		}
	}

	changed := map[string]string{
		"source rows":         edit(`"rows": 100`, `"rows": 200`),
		"source seed":         edit(`"seed": 7`, `"seed": 8`),
		"source distribution": edit(`"distribution": "normal"`, `"distribution": "uniform"`),
		"source bytes":        edit(`"virtualBytes": 1048576`, `"virtualBytes": 2097152`),
		"trunk operator":      edit(`"fn": "standardize"`, `"fn": "normalize"`),
		"branch param value":  edit(`"limit": 0.5`, `"limit": 0.6`),
		"branch order": edit(`{"label": "lo", "params": {"limit": 0.5}},
        {"label": "hi", "params": {"limit": 1.5}}`, `{"label": "hi", "params": {"limit": 1.5}},
        {"label": "lo", "params": {"limit": 0.5}}`),
		"evaluator":      edit(`"evaluator": "size"`, `"evaluator": "ratio"`),
		"selector kind":  edit(`"kind": "max"`, `"kind": "min"`),
		"iterate rounds": edit(`"rounds": 3`, `"rounds": 4`),
		"iterate op":     edit(`"fn": "square"`, `"fn": "abs"`),
		"op cost":        edit(`"fn": "standardize"`, `"fn": "standardize", "costPerMB": 0.5`),
		"branch hint":    edit(`"label": "lo"`, `"label": "lo", "hint": 9`),
	}
	for name, doc := range changed {
		if got := mustHash(t, doc); got == base {
			t.Errorf("%s: hash did not move; semantic edits must change the hash", name)
		}
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
