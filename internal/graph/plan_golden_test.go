package graph_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metadataflow/internal/graph"
	"metadataflow/internal/spec"
	"metadataflow/internal/workload/dnn"
	"metadataflow/internal/workload/kde"
	"metadataflow/internal/workload/synthetic"
	"metadataflow/internal/workload/timeseries"
)

var update = flag.Bool("update", false, "rewrite testdata/plans.golden from the current BuildPlan")

// dumpPlan renders everything the engine and the schedulers read off a plan:
// every stage with its label, operator chain, •T, T• and innermost branch,
// and every scope with the operators and the stages of each branch.
func dumpPlan(p *graph.Plan) string {
	var b strings.Builder
	ids := func(sts []*graph.Stage) string {
		out := make([]string, len(sts))
		for i, st := range sts {
			out[i] = fmt.Sprint(st.ID)
		}
		return strings.Join(out, ",")
	}
	scopeIdx := make(map[*graph.Scope]int, len(p.Scopes))
	for i, sc := range p.Scopes {
		scopeIdx[sc] = i
	}
	for _, st := range p.Stages {
		names := make([]string, len(st.Ops))
		for i, op := range st.Ops {
			names[i] = op.Name
		}
		fmt.Fprintf(&b, "stage %s ops=%s pre=[%s] post=[%s]", st, strings.Join(names, ">"), ids(p.Pre(st)), ids(p.Post(st)))
		if ref := p.Branch(st); ref != nil {
			fmt.Fprintf(&b, " branch=s%d.b%d", ref.Scope, ref.Branch)
		}
		if sc := p.ScopeOfChoose(st); sc != nil {
			fmt.Fprintf(&b, " closes=s%d", scopeIdx[sc])
		}
		if sc := p.ScopeOfExplore(st); sc != nil {
			fmt.Fprintf(&b, " opens=s%d", scopeIdx[sc])
		}
		for _, op := range st.Ops {
			if p.StageOf(op) != st {
				fmt.Fprintf(&b, " StageOf(%s)=%v", op.Name, p.StageOf(op))
			}
		}
		b.WriteByte('\n')
	}
	for i, sc := range p.Scopes {
		fmt.Fprintf(&b, "scope s%d explore=%s choose=%s depth=%d\n", i, sc.Explore.Name, sc.Choose.Name, sc.Depth)
		for bi, members := range sc.Branches {
			fmt.Fprintf(&b, "  b%d ops=%v stages=[%s]\n", bi, members, ids(p.BranchStages(sc, bi)))
		}
	}
	return b.String()
}

// nestedSpec is a two- or three-level explore written as a spec document:
// the shape the service's tenants submit.
func nestedSpec(levels int) *spec.Spec {
	op := func(name, fn string) spec.Step { return spec.Step{Op: &spec.OpStep{Name: name, Fn: fn}} }
	branches := func(key string, n int) []spec.Branch {
		out := make([]spec.Branch, n)
		for i := range out {
			v := 0.5 + 0.25*float64(i)
			out[i] = spec.Branch{Label: fmt.Sprintf("%s=%.2f", key, v), Params: map[string]float64{key: v}}
		}
		return out
	}
	body := []spec.Step{
		{Op: &spec.OpStep{Name: "keep", Fn: "filter-absless", ParamKey: "limit"}},
		op("fold", "abs"),
	}
	for l := 1; l < levels; l++ {
		inner := spec.Step{Explore: &spec.ExploreStep{
			Name:     fmt.Sprintf("level%d", l),
			Branches: branches("limit", 2+l),
			Body:     body,
			Choose:   spec.Choose{Evaluator: "size", Selector: spec.Selector{Kind: "topk", K: 2}},
		}}
		body = []spec.Step{
			{Op: &spec.OpStep{Name: fmt.Sprintf("scale%d", l), Fn: "affine", A: 1, ParamKey: "a"}},
			op(fmt.Sprintf("center%d", l), "standardize"),
			inner,
			{Iterate: &spec.IterateStep{Name: fmt.Sprintf("iter%d", l), Rounds: 2, Op: spec.OpStep{Name: "step", Fn: "affine", A: 0.5}}},
		}
	}
	outer := spec.Step{Explore: &spec.ExploreStep{
		Name:     "outer",
		Branches: branches("a", 3),
		Body:     body,
		Choose:   spec.Choose{Evaluator: "mean", Selector: spec.Selector{Kind: "max"}},
	}}
	return &spec.Spec{
		Name:     fmt.Sprintf("nested-%d", levels),
		Source:   spec.Source{Rows: 64, Partitions: 4, VirtualBytes: 1 << 24},
		Pipeline: []spec.Step{op("prep", "standardize"), outer, op("sink", "identity")},
	}
}

// TestBuildPlanGolden pins the structure BuildPlan derives — stage
// decomposition and numbering, stage edges, branch references, scopes and
// their members — for the four workload jobs at default scale and two nested
// spec documents. The golden was generated from the map-backed planner this
// one replaced; stage IDs feed every committed artifact, so any drift here
// shows up before it shows up as a BENCH_*.json diff.
func TestBuildPlanGolden(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"synthetic", func() (*graph.Graph, error) { return synthetic.BuildMDF(synthetic.Defaults()) }},
		{"kde", func() (*graph.Graph, error) { return kde.BuildMDF(kde.Defaults()) }},
		{"timeseries", func() (*graph.Graph, error) { return timeseries.BuildMDF(timeseries.Defaults()) }},
		{"dnn", func() (*graph.Graph, error) { return dnn.BuildEarlyChooseMDF(dnn.Defaults()) }},
		{"spec-nested-2", func() (*graph.Graph, error) { return nestedSpec(2).Compile() }},
		{"spec-nested-3", func() (*graph.Graph, error) { return nestedSpec(3).Compile() }},
	}
	var b strings.Builder
	for _, c := range cases {
		g, err := c.build()
		if err != nil {
			t.Fatalf("%s: build: %v", c.name, err)
		}
		p, err := graph.BuildPlan(g)
		if err != nil {
			t.Fatalf("%s: BuildPlan: %v", c.name, err)
		}
		fmt.Fprintf(&b, "== %s: %d operators, %d stages, %d scopes\n%s", c.name, g.NumOps(), len(p.Stages), len(p.Scopes), dumpPlan(p))
	}
	path := filepath.Join("testdata", "plans.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := "<end of golden>"
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("plan dump differs from testdata/plans.golden at line %d:\n got  %s\n want %s", i+1, gl[i], w)
			}
		}
		t.Fatalf("plan dump is a strict prefix of testdata/plans.golden (%d of %d lines)", len(gl), len(wl))
	}
}
