package plan

import (
	"reflect"
	"testing"

	"metadataflow/internal/spec"
)

// TestVocabularyReachesEveryConsumer keeps the spec language's vocabulary in
// one place: for every row of spec.Ops, spec.Evaluators and spec.Selectors, a
// one-step spec that uses the name passes Validate, compiles, normalises to a
// fixpoint, hashes and is vetted; and the verifier holds a decision for it —
// an operator has an opTransfer case (a bounded input comes out bounded) or
// its row marks it unbounded, and an evaluator's row has a score range or the
// same mark. A new name cannot reach one consumer only.
func TestVocabularyReachesEveryConsumer(t *testing.T) {
	explore := func(c spec.Choose) *spec.Spec {
		return &spec.Spec{
			Source: spec.Source{Rows: 10},
			Pipeline: []spec.Step{{Explore: &spec.ExploreStep{
				Name:     "e",
				Branches: []spec.Branch{{Label: "a"}, {Label: "b"}},
				Body:     []spec.Step{{Op: &spec.OpStep{Name: "x"}}},
				Choose:   c,
			}}},
		}
	}
	check := func(name string, s *spec.Spec) {
		t.Helper()
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		if _, err := s.Compile(); err != nil {
			t.Errorf("%s: compile: %v", name, err)
		}
		if n := s.Normalized(); !reflect.DeepEqual(n.Normalized(), n) {
			t.Errorf("%s: normalising twice changes the spec", name)
		}
		if s.HashReport().Spec == 0 {
			t.Errorf("%s: no content hash", name)
		}
		res, err := Verify(s, DefaultConfig())
		if err != nil || res.Graph == nil {
			t.Errorf("%s: the verifier did not compile it: %v", name, err)
		}
	}

	for fn, row := range spec.Ops {
		check("op "+fn, &spec.Spec{
			Source:   spec.Source{Rows: 10},
			Pipeline: []spec.Step{{Op: &spec.OpStep{Name: "x", Fn: fn}}},
		})
		out, _ := opTransfer(spec.OpStep{Fn: fn}, nil, valRange{lo: -1, hi: 1})
		if bounded := out != top(); bounded == row.Unbounded {
			t.Errorf("op %s: marked unbounded %v, but opTransfer bounds [-1, 1] to %v", fn, row.Unbounded, out)
		}
	}
	for ev, row := range spec.Evaluators {
		check("evaluator "+ev, explore(spec.Choose{Evaluator: ev}))
		if row.Unbounded == (row.Lo < row.Hi) {
			t.Errorf("evaluator %s: needs exactly one of a score range [Lo, Hi] and the unbounded mark, has [%g, %g] and %v",
				ev, row.Lo, row.Hi, row.Unbounded)
		}
	}
	for kind := range spec.Selectors {
		check("selector "+kind, explore(spec.Choose{Selector: spec.Selector{Kind: kind, K: 1}}))
	}
}
