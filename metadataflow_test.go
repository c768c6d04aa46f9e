package metadataflow_test

import (
	"strings"
	"testing"

	mdf "metadataflow"
)

func ints(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// buildPublicMDF exercises the full public surface: builder, evaluator,
// selector, transforms.
func buildPublicMDF(t *testing.T) *mdf.Graph {
	t.Helper()
	b := mdf.NewMDF()
	src := b.Source("src", mdf.SourceFromDataset(mdf.FromSlice("in", ints(1000), 8, 1<<20)), 0.001)
	specs := []mdf.BranchSpec{
		{Label: "k200", Hint: 200},
		{Label: "k600", Hint: 600},
		{Label: "k900", Hint: 900},
	}
	out := src.Explore("limits", specs, mdf.NewChooser(mdf.SizeEvaluator(), mdf.Max()),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			limit := int(spec.Hint)
			return start.Then("f"+spec.Label, mdf.Filter("f", func(v int) bool {
				return v < limit
			}), 0.002)
		})
	out.Then("sink", mdf.Identity("result"), 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunDefaultConfig(t *testing.T) {
	res, err := mdf.Run(buildPublicMDF(t), mdf.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.NumRows() != 900 {
		t.Fatalf("output rows = %d, want 900", res.Output.NumRows())
	}
	if res.CompletionTime() <= 0 {
		t.Fatal("non-positive completion time")
	}
}

func TestRunZeroConfigUsesDefaults(t *testing.T) {
	res, err := mdf.Run(buildPublicMDF(t), mdf.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output == nil {
		t.Fatal("no output")
	}
}

func TestRunAllSchedulerAndPolicyCombos(t *testing.T) {
	for _, sched := range []mdf.SchedulerKind{
		mdf.SchedulerBAS, mdf.SchedulerBASSorted, mdf.SchedulerBASRandom, mdf.SchedulerBFS,
	} {
		for _, pol := range []mdf.MemoryPolicy{mdf.PolicyLRU, mdf.PolicyAMM} {
			cfg := mdf.DefaultRunConfig()
			cfg.Scheduler = sched
			cfg.Memory = pol
			res, err := mdf.Run(buildPublicMDF(t), cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", sched, pol, err)
			}
			if res.Output.NumRows() != 900 {
				t.Errorf("%s/%s: output rows = %d, want 900", sched, pol, res.Output.NumRows())
			}
		}
	}
}

func TestRunRejectsUnknownKinds(t *testing.T) {
	cfg := mdf.DefaultRunConfig()
	cfg.Scheduler = "warp"
	if _, err := mdf.Run(buildPublicMDF(t), cfg); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	cfg = mdf.DefaultRunConfig()
	cfg.Memory = "fifo"
	if _, err := mdf.Run(buildPublicMDF(t), cfg); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestExpandJobsPublic(t *testing.T) {
	jobs, err := mdf.ExpandJobs(buildPublicMDF(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("expanded %d jobs, want 3", len(jobs))
	}
}

func TestRunSequentialAndParallel(t *testing.T) {
	g := buildPublicMDF(t)
	seq, err := mdf.RunSequential(g, mdf.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if seq.Jobs != 3 {
		t.Fatalf("sequential ran %d jobs, want 3", seq.Jobs)
	}
	par, err := mdf.RunParallel(g, 3, mdf.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if par.CompletionTime > seq.CompletionTime {
		t.Errorf("parallel (%v) should not exceed sequential (%v)",
			par.CompletionTime, seq.CompletionTime)
	}
	mdfRes, err := mdf.Run(g, mdf.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if mdfRes.CompletionTime().Seconds() >= seq.CompletionTime {
		t.Errorf("MDF (%v) should beat sequential (%v)",
			mdfRes.CompletionTime(), seq.CompletionTime)
	}
}

func TestDOTPublic(t *testing.T) {
	dot := mdf.DOT(buildPublicMDF(t), "test")
	if !strings.Contains(dot, "digraph") {
		t.Fatal("DOT output malformed")
	}
}

func TestSelectorsReexported(t *testing.T) {
	// Compile-time/API sanity: all paper selectors reachable from the root.
	for _, sel := range []mdf.Selector{
		mdf.TopK(2), mdf.BottomK(2), mdf.Min(), mdf.Max(),
		mdf.Threshold(1, false), mdf.Interval(0, 1),
		mdf.KThreshold(1, 1, false), mdf.KInterval(1, 0, 1), mdf.Mode(),
	} {
		if sel.Name() == "" {
			t.Error("selector with empty name")
		}
	}
}

func TestBranchesHelper(t *testing.T) {
	specs := mdf.Branches("a", "b", "c")
	if len(specs) != 3 || specs[2].Hint != 2 || specs[1].Label != "b" {
		t.Fatalf("Branches() = %+v", specs)
	}
}
