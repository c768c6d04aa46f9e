package plan

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"metadataflow/internal/spec"
)

func mustParse(t *testing.T, doc string) *spec.Spec {
	t.Helper()
	s, err := spec.Parse([]byte(doc))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, doc)
	}
	return s
}

func mustVerify(t *testing.T, doc string, cfg Config) *Result {
	t.Helper()
	res, err := Verify(mustParse(t, doc), cfg)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	return res
}

func rulesOf(res *Result) []string {
	var out []string
	for _, f := range res.Findings {
		out = append(out, f.Rule)
	}
	return out
}

const dupDoc = `{"source":{"rows":10},"pipeline":[{"explore":{"name":"e",
  "branches":[{"label":"a","params":{"l":1}},{"label":"b","params":{"l":1}}],
  "body":[{"op":{"name":"f","fn":"filter-less","paramKey":"l"}}],
  "choose":{"selector":{"kind":"max"}}}}]}`

func TestAllowSuppressesAndRecordsStale(t *testing.T) {
	res := mustVerify(t, dupDoc, DefaultConfig())
	if got := rulesOf(res); len(got) != 1 || got[0] != "dupbranch" {
		t.Fatalf("baseline findings = %v, want exactly one dupbranch", got)
	}

	allowed := strings.Replace(dupDoc, `{"source"`, `{"allow":["dupbranch"],"source"`, 1)
	res = mustVerify(t, allowed, DefaultConfig())
	if len(res.Findings) != 0 {
		t.Errorf("allow did not suppress: %v", res.Findings)
	}
	if len(res.StaleAllows) != 0 {
		t.Errorf("used allow reported stale: %v", res.StaleAllows)
	}

	stale := strings.Replace(dupDoc, `{"source"`, `{"allow":["dupbranch","emptyfilter","nosuchrule"],"source"`, 1)
	res = mustVerify(t, stale, DefaultConfig())
	if len(res.Findings) != 0 {
		t.Errorf("allow did not suppress: %v", res.Findings)
	}
	var staleRules []string
	for _, s := range res.StaleAllows {
		staleRules = append(staleRules, s.Rule)
	}
	if strings.Join(staleRules, ",") != "emptyfilter,nosuchrule" {
		t.Errorf("stale allows = %v, want [emptyfilter nosuchrule]", staleRules)
	}
	if !strings.Contains(res.StaleAllows[0].String(), "suppresses nothing") {
		t.Errorf("stale allow diagnostic: %q", res.StaleAllows[0])
	}
}

func TestRuleSubsetAndUnknownRule(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rules = []string{"compile"}
	if res := mustVerify(t, dupDoc, cfg); len(res.Findings) != 0 {
		t.Errorf("compile-only run still found %v", res.Findings)
	}
	cfg.Rules = []string{"dupbrach"}
	if _, err := Verify(mustParse(t, dupDoc), cfg); err == nil || !strings.Contains(err.Error(), "unknown rule") {
		t.Errorf("unknown rule not rejected: %v", err)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Path: "pipeline[0].explore", Rule: "deadchoose", Msg: "boom"}
	if got := f.String(); got != "pipeline[0].explore: [deadchoose] boom" {
		t.Errorf("finding format %q", got)
	}
}

// TestMemFeasibleReservation covers the quota check that is independent of
// the spec: a service shape whose admission reservation exceeds the tenant
// quota can never admit any job.
func TestMemFeasibleReservation(t *testing.T) {
	doc := `{"source":{"rows":10,"virtualBytes":1024},"pipeline":[{"op":{"name":"x"}}]}`
	cfg := Config{Workers: 4, MemPerWorker: 1 << 30, TenantQuota: 2 << 30}
	res := mustVerify(t, doc, cfg)
	if got := rulesOf(res); len(got) != 1 || got[0] != "memfeasible" {
		t.Fatalf("findings = %v, want one memfeasible", res.Findings)
	}
	if !strings.Contains(res.Findings[0].Msg, "can never be admitted") {
		t.Errorf("message: %q", res.Findings[0].Msg)
	}
	// Matching shape within quota is clean.
	cfg.TenantQuota = 4 << 30
	if res := mustVerify(t, doc, cfg); len(res.Findings) != 0 {
		t.Errorf("feasible job flagged: %v", res.Findings)
	}
}

// TestMemFeasibleBoundaries pins the partition arithmetic at the exact
// boundary the allocator uses (memorymgr Put spills only when bytes exceed
// the budget): equality is feasible, one byte under the partition size is
// not.
func TestMemFeasibleBoundaries(t *testing.T) {
	// ceil(1 GiB / 8) = 128 MiB: exactly the budget -> a partition still
	// fits in memory, clean.
	doc := `{"source":{"rows":10,"virtualBytes":1073741824},"pipeline":[{"op":{"name":"x"}}]}`
	cfg := Config{Workers: 2, MemPerWorker: 128 << 20}
	if res := mustVerify(t, doc, cfg); len(res.Findings) != 0 {
		t.Errorf("boundary-feasible job flagged: %v", res.Findings)
	}
	cfg.MemPerWorker--
	res := mustVerify(t, doc, cfg)
	if got := rulesOf(res); len(got) != 1 || got[0] != "memfeasible" {
		t.Errorf("one byte under the partition size not flagged: %v", res.Findings)
	}
	if !strings.Contains(res.Findings[0].Msg, "straight to disk") {
		t.Errorf("message: %q", res.Findings[0].Msg)
	}
}

func TestDeadChooseEmptyInterval(t *testing.T) {
	doc := `{"source":{"rows":10},"pipeline":[{"explore":{"name":"e",
	  "branches":[{"label":"a","params":{"l":1}},{"label":"b","params":{"l":2}}],
	  "body":[{"op":{"name":"f","fn":"filter-less","paramKey":"l"}}],
	  "choose":{"evaluator":"mean","selector":{"kind":"interval","lo":5,"hi":1}}}}]}`
	res := mustVerify(t, doc, DefaultConfig())
	found := false
	for _, f := range res.Findings {
		if f.Rule == "deadchoose" && strings.Contains(f.Msg, "empty range") {
			found = true
		}
	}
	if !found {
		t.Errorf("empty interval selector not flagged: %v", res.Findings)
	}
}

// TestNoFalsePositives: specs the abstraction cannot condemn stay clean —
// growth the interval domain cannot bound, filters that keep something,
// evaluators without a provable range.
func TestNoFalsePositives(t *testing.T) {
	for name, doc := range map[string]string{
		// affine 2x is unstable under iteration: the domain widens to top
		// instead of claiming the 1.5 divergence threshold unreachable.
		"growing iterate": `{"source":{"rows":10,"distribution":"uniform"},"pipeline":[
		  {"iterate":{"name":"grow","rounds":5,"divergeAboveMeanAbs":1.5,"op":{"name":"g","fn":"affine","a":2}}}]}`,
		// the filter keeps part of the interval.
		"live filter": `{"source":{"rows":10,"distribution":"uniform"},"pipeline":[
		  {"op":{"name":"f","fn":"filter-less","limit":0.5}}]}`,
		// normal sources are unbounded: no filter on them is provably empty.
		"unbounded source": `{"source":{"rows":10},"pipeline":[
		  {"op":{"name":"f","fn":"filter-greater","limit":1e12}}]}`,
		// mean has no provable range: a wild threshold is not condemnable.
		"mean threshold": `{"source":{"rows":10},"pipeline":[{"explore":{"name":"e",
		  "branches":[{"label":"a","params":{"l":1}},{"label":"b","params":{"l":2}}],
		  "body":[{"op":{"name":"f","fn":"filter-less","paramKey":"l"}}],
		  "choose":{"evaluator":"mean","selector":{"kind":"threshold","bound":1e12}}}}]}`,
	} {
		if res := mustVerify(t, doc, DefaultConfig()); len(res.Findings) != 0 {
			t.Errorf("%s: clean spec flagged: %v", name, res.Findings)
		}
	}
}

// TestEmptyFilterThroughExplore: branch bodies are analysed under their own
// params, so only the branch whose resolved limit is impossible fires.
func TestEmptyFilterThroughExplore(t *testing.T) {
	doc := `{"source":{"rows":10,"distribution":"uniform"},"pipeline":[
	  {"op":{"name":"m","fn":"abs"}},
	  {"explore":{"name":"e",
	    "branches":[{"label":"dead","params":{"l":-1}},{"label":"live","params":{"l":0.5}}],
	    "body":[{"op":{"name":"f","fn":"filter-less","paramKey":"l"}}],
	    "choose":{"evaluator":"mean","selector":{"kind":"max"}}}}]}`
	res := mustVerify(t, doc, DefaultConfig())
	if got := rulesOf(res); len(got) != 1 || got[0] != "emptyfilter" {
		t.Fatalf("findings = %v, want one emptyfilter", res.Findings)
	}
	if want := "pipeline[1].explore.branch[0].body[0]"; res.Findings[0].Path != want {
		t.Errorf("path = %q, want %q", res.Findings[0].Path, want)
	}
}

// TestOpTransfers pins the abstract transfer functions directly.
func TestOpTransfers(t *testing.T) {
	in := valRange{lo: -1, hi: 1}
	cases := map[string]struct {
		op   spec.OpStep
		in   valRange
		want valRange
	}{
		"affine flips":    {spec.OpStep{Fn: "affine", A: -2, B: 1}, in, valRange{lo: -1, hi: 3}},
		"affine constant": {spec.OpStep{Fn: "affine", A: 0, B: 7}, top(), valRange{lo: 7, hi: 7}},
		"square spans":    {spec.OpStep{Fn: "square"}, valRange{lo: -2, hi: 1}, valRange{lo: 0, hi: 4}},
		"square positive": {spec.OpStep{Fn: "square"}, valRange{lo: 2, hi: 3}, valRange{lo: 4, hi: 9}},
		"abs":             {spec.OpStep{Fn: "abs"}, valRange{lo: -3, hi: -2}, valRange{lo: 2, hi: 3}},
		"normalize":       {spec.OpStep{Fn: "normalize"}, top(), valRange{lo: 0, hi: 1}},
		"filter clips":    {spec.OpStep{Fn: "filter-less", Limit: 0.5}, in, valRange{lo: -1, hi: 0.5}},
		"absless clips":   {spec.OpStep{Fn: "filter-absless", Limit: 0.5}, in, valRange{lo: -0.5, hi: 0.5}},
	}
	for name, tc := range cases {
		got, provedEmpty := opTransfer(tc.op, nil, tc.in)
		if provedEmpty || got != tc.want {
			t.Errorf("%s: transfer(%v) = %v (empty=%v), want %v", name, tc.in, got, provedEmpty, tc.want)
		}
	}

	empties := map[string]spec.OpStep{
		"less at lo":      {Fn: "filter-less", Limit: -1},
		"greater at hi":   {Fn: "filter-greater", Limit: 1},
		"absless at zero": {Fn: "filter-absless", Limit: 0},
	}
	for name, op := range empties {
		if got, provedEmpty := opTransfer(op, nil, in); !provedEmpty || !got.empty {
			t.Errorf("%s: transfer not proven empty: %v", name, got)
		}
	}

	// standardize widens to top and unknown fns stay conservative.
	if got, _ := opTransfer(spec.OpStep{Fn: "standardize"}, nil, in); got != top() {
		t.Errorf("standardize = %v, want top", got)
	}
	if !math.IsInf(top().hi, 1) {
		t.Error("top is not unbounded")
	}
}

// randomSpec draws a spec with defects of every walk rule seeded in at
// random: uniform sources (bounded intervals, so filters can be proved
// empty), single-round and idempotent iterates, divergence thresholds out
// of reach, selectors that keep everything, duplicate branches and nested
// explores.
func randomSpec(rng *rand.Rand) *spec.Spec {
	fns := []string{"identity", "affine", "square", "abs", "normalize", "filter-less", "filter-greater", "filter-absless"}
	op := func(name string) spec.OpStep {
		return spec.OpStep{
			Name: name, Fn: fns[rng.Intn(len(fns))],
			A: float64(rng.Intn(3)), B: float64(rng.Intn(2)), Limit: float64(rng.Intn(7)-3) / 2,
			ParamKey: []string{"", "p"}[rng.Intn(2)],
		}
	}
	var steps func(depth int, prefix string) []spec.Step
	steps = func(depth int, prefix string) []spec.Step {
		out := make([]spec.Step, 1+rng.Intn(3))
		for i := range out {
			name := fmt.Sprintf("%s%d", prefix, i)
			switch k := rng.Intn(4); {
			case k == 0:
				out[i].Iterate = &spec.IterateStep{
					Name: name, Rounds: 1 + rng.Intn(3), Op: op(name),
					DivergeAboveMeanAbs: float64(rng.Intn(3)),
				}
			case k == 1 && depth < 2:
				branches := make([]spec.Branch, 2+rng.Intn(2))
				for b := range branches {
					branches[b] = spec.Branch{
						Label:  fmt.Sprintf("%s.b%d", name, b),
						Params: map[string]float64{"p": float64(rng.Intn(3)) / 2},
					}
				}
				out[i].Explore = &spec.ExploreStep{
					Name: name, Branches: branches, Body: steps(depth+1, name+"."),
					Choose: spec.Choose{
						Evaluator: []string{"size", "ratio", "mean", "neg-mean-abs"}[rng.Intn(4)],
						Selector: []spec.Selector{
							{Kind: "max"}, {Kind: "topk", K: 1 + rng.Intn(3)},
							{Kind: "threshold", Bound: float64(rng.Intn(5) - 2), AtMost: rng.Intn(2) == 0},
							{Kind: "interval", Lo: float64(rng.Intn(4) - 2), Hi: float64(rng.Intn(4) - 2)},
						}[rng.Intn(4)],
					},
				}
			default:
				o := op(name)
				out[i].Op = &o
			}
		}
		return out
	}
	return &spec.Spec{
		Source: spec.Source{
			Rows: 10, Partitions: 1 + rng.Intn(4), VirtualBytes: int64(1+rng.Intn(64)) << 30,
			Distribution: []string{"uniform", "normal"}[rng.Intn(2)],
		},
		Pipeline: steps(0, "s"),
	}
}

// TestVerifySharesItsWalk is the oracle for Verify doing each thing once.
// The walk rules now share one interval interpretation of the pipeline: for
// random defective specs the full battery must report exactly what one run
// per rule reports — each of those walks alone — concatenated in rule order.
// The by-products it hands over must be what a caller would have built: the
// spec's own hash report, and a compiled graph exactly when the spec
// compiles.
func TestVerifySharesItsWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	cfg := Config{MaxIterateRounds: 2, Workers: 8, MemPerWorker: 4 << 30, TenantQuota: 16 << 30}
	fired := make(map[string]int)
	for i := 0; i < 400; i++ {
		s := randomSpec(rng)
		if err := s.Validate(); err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		full, err := Verify(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want []Finding
		for _, rule := range Rules() {
			one := cfg
			one.Rules = []string{rule}
			res, err := Verify(s, one)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, res.Findings...)
			fired[rule] += len(res.Findings)
		}
		if !reflect.DeepEqual(full.Findings, want) {
			t.Fatalf("spec %d: full battery\n%v\nper-rule runs\n%v", i, full.Findings, want)
		}
		if !reflect.DeepEqual(full.Hashes, s.HashReport()) {
			t.Fatalf("spec %d: handed-over hash report differs from HashReport()", i)
		}
		g, err := s.Compile()
		if (err == nil) != (full.Graph != nil) || (g != nil && full.Graph.NumOps() != g.NumOps()) {
			t.Fatalf("spec %d: handed-over graph %v, Compile gives %v, %v", i, full.Graph, g, err)
		}
	}
	for _, rule := range []string{"dupbranch", "deadchoose", "degeniterate", "emptyfilter", "memfeasible"} {
		if fired[rule] == 0 {
			t.Errorf("no random spec trips %s: the oracle does not reach it", rule)
		}
	}
}
