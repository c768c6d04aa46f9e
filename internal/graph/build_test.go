package graph_test

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"metadataflow/internal/cluster"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
	"metadataflow/internal/workload/synthetic"
	"metadataflow/internal/workload/timeseries"
)

// TestBuildAllocationsBounded is the gate on what building a graph
// allocates, on the three paths BenchmarkBuild times. The builder cuts
// operators and handles from chunks of its own, a branch's operator is one
// closure, its label a substring of its name, and names shared by sibling
// scopes are built once; what is left of a branch of the flat 256-branch
// masking explore is its closure and its name. When this was written the
// flat build allocated 607 times (the builder it replaced 1 897, 7.4 per
// branch), the 10×12 nested synthetic job 267 (1 064) and the compilation of
// the three-level nested spec 389 for its 167 operators, 2.33 each (1 034,
// 6.2 each). The first two bounds leave a fifth above the reading. The third
// leaves an eighth: a second closure per Map operator, which a fifth would let
// through on this spec, adds 66.
func TestBuildAllocationsBounded(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	for _, c := range builders() {
		g, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		var bound float64
		switch c.name {
		case "flat-256":
			bound = 2*256 + 216
		case "nested-10x12":
			bound = 320
		case "spec-nested":
			bound = 2.6 * float64(g.NumOps())
		}
		got := testing.AllocsPerRun(10, func() {
			if _, err := c.build(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations for %d operators", c.name, got, g.NumOps())
		if got > bound {
			t.Errorf("%s: building the graph allocates %.0f times, want at most %.0f", c.name, got, bound)
		}
	}
}

// TestBuildPlanOfBuiltGraphOnlyDerivesStages holds a job to one validation:
// the builder validates the graph, and BuildPlan on it allocates what
// deriving the stages alone does, not a second Kahn sort, union-find and
// scope match.
func TestBuildPlanOfBuiltGraphOnlyDerivesStages(t *testing.T) {
	for _, c := range builders() {
		g, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		plan := testing.AllocsPerRun(10, func() {
			if _, err := graph.BuildPlan(g); err != nil {
				t.Fatal(err)
			}
		})
		derive := testing.AllocsPerRun(10, func() { graph.DerivePlan(g) })
		if plan != derive {
			t.Errorf("%s: BuildPlan of a built graph allocates %.0f times, deriving its stages %.0f", c.name, plan, derive)
		}
	}
}

// TestBuildPlanValidatesAChangedGraph changes a built graph with Add or
// Connect, each in a way that breaks it, and wants BuildPlan to say so: the
// validation Build kept does not outlive the graph it checked.
func TestBuildPlanValidatesAChangedGraph(t *testing.T) {
	nested := nested10x12()
	nested.OuterBranches, nested.InnerBranches = 2, 2
	for _, tc := range []struct {
		name   string
		change func(g *graph.Graph)
		want   string
	}{
		{"cycle", func(g *graph.Graph) {
			// The sink back to the source.
			ops := g.Ops()
			g.MustConnect(ops[len(ops)-1], ops[0], graph.Narrow)
		}, "cycle"},
		{"scope nesting", func(g *graph.Graph) {
			// The source straight into an inner branch.
			g.MustConnect(g.Ops()[0], innerBranchHead(t, g), graph.Narrow)
		}, "different scopes"},
		{"disconnected", func(g *graph.Graph) {
			g.Add(&graph.Operator{Name: "stray", Kind: graph.KindSource, Transform: mdf.Identity("stray")})
		}, "not connected"},
	} {
		g, err := synthetic.BuildMDF(nested)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := graph.BuildPlan(g); err != nil {
			t.Fatalf("%s: the built graph does not plan: %v", tc.name, err)
		}
		tc.change(g)
		if _, err := graph.BuildPlan(g); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: BuildPlan after the change = %v, want an error saying %q", tc.name, err, tc.want)
		}
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate passes the changed graph", tc.name)
		}
	}
}

// innerBranchHead returns the first operator of the first branch of an
// inner scope of a nested synthetic graph.
func innerBranchHead(t *testing.T, g *graph.Graph) *graph.Operator {
	t.Helper()
	for _, op := range g.Ops() {
		if strings.HasPrefix(op.Name, "op2(") {
			return op
		}
	}
	t.Fatal("no inner branch")
	return nil
}

// TestConcurrentPlansOfOneBuiltGraph builds plans of one built graph on
// several goroutines: BuildPlan only reads what Build kept, which -race
// checks, and every plan has the stages of the first.
func TestConcurrentPlansOfOneBuiltGraph(t *testing.T) {
	g, err := timeseries.BuildFlatMDF(flat256(), mdf.TopK(4), false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := graph.BuildPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	plans := make([]*graph.Plan, 4)
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plans[i], _ = graph.BuildPlan(g)
		}()
	}
	wg.Wait()
	for i, p := range plans {
		if p == nil || dumpPlan(p) != dumpPlan(want) {
			t.Errorf("plan %d built concurrently differs from the first", i)
		}
	}
}

// TestSetupBudget holds what a job allocates before its first step, on one
// goroutine: building the graph, planning it and starting a run
// (engine.NewRun), on each path that builds a graph. The ceilings are the
// bytes and allocations (runtime.MemStats TotalAlloc and Mallocs) read when
// this was written, with Go 1.24 on amd64, plus 2 %. Before the explore
// sized the graph's tables, links took 8 bytes, the time series names
// formatted each setting once and the plan and run kept no per-branch
// headers, the readings were 246 272 bytes in 405 allocations (flat-256),
// 134 344 in 319 (nested-10x12) and 114 456 in 472 (spec-nested). The
// counts are deterministic: the setup draws its inputs from fixed seeds,
// none of it runs on another goroutine, and ReadMemStats flushes every P's
// cached counts, so one build reads the same numbers on every run and at
// any GOMAXPROCS, and a regression of 2 % shows.
func TestSetupBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	budget := map[string]struct{ bytes, mallocs uint64 }{
		"flat-256":     {192432, 364},
		"nested-10x12": {112904, 274},
		"spec-nested":  {101480, 428},
	}
	cl := cluster.MustNew(cluster.DefaultConfig())
	for _, c := range builders() {
		setup := func() {
			g, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			plan, err := graph.BuildPlan(g)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := startRun(cl, plan); err != nil {
				t.Fatal(err)
			}
		}
		setup() // anything made once per process is made now
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		setup()
		runtime.ReadMemStats(&after)
		bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		t.Logf("%s: %d bytes in %d allocations", c.name, bytes, mallocs)
		if limit := budget[c.name].bytes * 102 / 100; bytes > limit {
			t.Errorf("%s: setup allocates %d bytes, want at most %d", c.name, bytes, limit)
		}
		if limit := budget[c.name].mallocs * 102 / 100; mallocs > limit {
			t.Errorf("%s: setup allocates %d times, want at most %d", c.name, mallocs, limit)
		}
	}
}
