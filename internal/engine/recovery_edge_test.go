package engine_test

import (
	"testing"

	"metadataflow/internal/dataset"
	"metadataflow/internal/faults"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
)

// buildSolePartitionMDF is buildFilterMDF with a single-partition input, so
// exactly one node holds the sole copy of every intermediate dataset.
func buildSolePartitionMDF(t *testing.T) *graph.Graph {
	t.Helper()
	b := mdf.NewBuilder()
	src := b.Source("src", mdf.SourceFunc(func() *dataset.Dataset {
		return dataset.FromRows("input", intRows(1000), 1, 1<<20)
	}), 0.001)
	specs := []mdf.BranchSpec{
		{Label: "limit=100", Hint: 100},
		{Label: "limit=500", Hint: 500},
		{Label: "limit=900", Hint: 900},
	}
	chooser := mdf.NewChooser(mdf.SizeEvaluator(), mdf.Max())
	out := src.Explore("limits", specs, chooser, func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
		limit := int(spec.Hint)
		return start.Then("filter<"+spec.Label, mdf.FilterRows("filtered", func(r dataset.Row) bool {
			return r.(int) < limit
		}), 0.002)
	})
	out.Then("sink", mdf.Identity("result"), 0.001)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// TestSoleCopyCrashMidChoose permanently kills each node in turn right as
// the choose window opens, on a workload whose datasets have exactly one
// partition — so whichever node is the home loses the only copy and the
// engine must re-derive it from lineage before the choose can conclude.
func TestSoleCopyCrashMidChoose(t *testing.T) {
	clean := runMDF(t, buildSolePartitionMDF(t), faultOpts(nil))
	rederived := 0
	for node := 0; node < 4; node++ {
		plan := &faults.Plan{
			Crashes: []faults.Crash{{Node: node, AfterStages: 4, Permanent: true}},
		}
		res := runMDF(t, buildSolePartitionMDF(t), faultOpts(plan))
		if got, want := res.Output.NumRows(), clean.Output.NumRows(); got != want {
			t.Errorf("node %d: output rows = %d, want %d", node, got, want)
		}
		if got, want := res.Metrics.ChooseEvals, clean.Metrics.ChooseEvals; got != want {
			t.Errorf("node %d: choose evals = %d, want %d", node, got, want)
		}
		if res.Metrics.NodeCrashes != 1 {
			t.Errorf("node %d: crashes = %d, want 1", node, res.Metrics.NodeCrashes)
		}
		rederived += res.Metrics.PartitionsRederived + res.Metrics.PartitionsRebalanced
	}
	// At least the home node's crash must have forced lineage re-derivation
	// or rebalancing of the sole copy.
	if rederived == 0 {
		t.Error("no crash forced re-derivation of the sole partition copy")
	}
}

// TestBackToBackSameNodeCrashesWithinRetryWindow crashes the same node at
// two consecutive stage boundaries, the second inside the recovery window of
// the first, on a run whose evaluator panics twice and is retried with the
// default backoff.
func TestBackToBackSameNodeCrashesWithinRetryWindow(t *testing.T) {
	clean := runMDF(t, buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator()), faultOpts(nil))
	plan := &faults.Plan{
		Crashes: []faults.Crash{
			{Node: 1, AfterStages: 2},
			{Node: 1, AfterStages: 3},
		},
		Panics: []faults.PanicSpec{{Target: faults.TargetEval, Times: 2}},
	}
	res := runMDF(t, buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator()), faultOpts(plan))
	if got, want := res.Output.NumRows(), clean.Output.NumRows(); got != want {
		t.Errorf("output rows = %d, want %d", got, want)
	}
	if got, want := res.Metrics.ChooseEvals, clean.Metrics.ChooseEvals; got != want {
		t.Errorf("choose evals = %d, want %d", got, want)
	}
	if res.Metrics.NodeCrashes != 2 {
		t.Errorf("node crashes = %d, want 2", res.Metrics.NodeCrashes)
	}
	if res.Metrics.Retries < 2 {
		t.Errorf("retries = %d, want >= 2 (panic budget must be consumed)", res.Metrics.Retries)
	}
	if res.CompletionTime() < clean.CompletionTime() {
		t.Errorf("faulted run (%v) finished before fault-free run (%v)",
			res.CompletionTime(), clean.CompletionTime())
	}
}

// TestFaultWindowSpanningCheckpoint degrades every node's disk for the whole
// run — so the checkpoints themselves are written under degradation — then
// crashes a node, forcing recovery to restore from checkpoints created
// inside the fault window.
func TestFaultWindowSpanningCheckpoint(t *testing.T) {
	clean := runMDF(t, buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator()), faultOpts(nil))
	plan := &faults.Plan{
		DiskFaults: []faults.Window{
			{Node: 0, From: 0, Factor: 6},
			{Node: 1, From: 0, Factor: 6},
			{Node: 2, From: 0, Factor: 6},
			{Node: 3, From: 0, Factor: 6},
		},
		Crashes: []faults.Crash{{Node: 2, AfterStages: 4}},
	}
	res := runMDF(t, buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator()), faultOpts(plan))
	if got, want := res.Output.NumRows(), clean.Output.NumRows(); got != want {
		t.Errorf("output rows = %d, want %d", got, want)
	}
	if res.Metrics.Mem.Checkpoints == 0 {
		t.Error("no checkpoints written inside the fault window")
	}
	if res.Metrics.NodeCrashes != 1 {
		t.Errorf("node crashes = %d, want 1", res.Metrics.NodeCrashes)
	}
	if res.CompletionTime() < clean.CompletionTime() {
		t.Errorf("degraded run (%v) finished before fault-free run (%v)",
			res.CompletionTime(), clean.CompletionTime())
	}
}
