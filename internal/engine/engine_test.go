package engine_test

import (
	"testing"

	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/engine"
	"metadataflow/internal/faults"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/sim"
)

func testCluster(memPerWorker sim.Bytes) *cluster.Cluster {
	cfg := cluster.DefaultConfig()
	cfg.Workers = 4
	cfg.MemPerWorker = memPerWorker
	return cluster.MustNew(cfg)
}

func intRows(n int) []dataset.Row {
	rows := make([]dataset.Row, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// buildFilterMDF explores three filter thresholds and keeps the branch whose
// output is smallest but non-empty, via min over sizes with a floor.
func buildFilterMDF(t *testing.T, sel mdf.Selector, eval mdf.Evaluator) *graph.Graph {
	t.Helper()
	b := mdf.NewBuilder()
	src := b.Source("src", mdf.SourceFunc(func() *dataset.Dataset {
		return dataset.FromRows("input", intRows(1000), 4, 1<<20)
	}), 0.001)
	specs := []mdf.BranchSpec{
		{Label: "limit=100", Hint: 100},
		{Label: "limit=500", Hint: 500},
		{Label: "limit=900", Hint: 900},
	}
	chooser := mdf.NewChooser(eval, sel)
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

func runMDF(t *testing.T, g *graph.Graph, opts engine.Options) *engine.Result {
	t.Helper()
	res, err := engine.Execute(g, opts)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return res
}

func TestExecuteMinSelection(t *testing.T) {
	g := buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator())
	res := runMDF(t, g, engine.Options{
		Cluster:     testCluster(1 << 30),
		Policy:      memorymgr.AMM,
		Scheduler:   scheduler.BAS(nil),
		Incremental: true,
	})
	// Max over size selects limit=900 -> 900 rows survive the filter.
	if got := res.Output.NumRows(); got != 900 {
		t.Errorf("output rows = %d, want 900", got)
	}
	if res.CompletionTime() <= 0 {
		t.Errorf("completion time = %v, want > 0", res.CompletionTime())
	}
	if res.Metrics.ChooseEvals != 3 {
		t.Errorf("choose evals = %d, want 3", res.Metrics.ChooseEvals)
	}
}

func TestExecuteMinPicksSmallest(t *testing.T) {
	g := buildFilterMDF(t, mdf.Min(), mdf.SizeEvaluator())
	res := runMDF(t, g, engine.Options{
		Cluster:   testCluster(1 << 30),
		Policy:    memorymgr.LRU,
		Scheduler: scheduler.BFS(),
	})
	if got := res.Output.NumRows(); got != 100 {
		t.Errorf("output rows = %d, want 100", got)
	}
}

func TestKThresholdPrunesSuperfluousBranches(t *testing.T) {
	// first-1 with threshold >= 50 rows: the first branch (100 rows)
	// qualifies, so the remaining two branches must be pruned (R1b).
	sel := mdf.KThreshold(1, 50, false)
	g := buildFilterMDF(t, sel, mdf.SizeEvaluator())
	res := runMDF(t, g, engine.Options{
		Cluster:     testCluster(1 << 30),
		Policy:      memorymgr.AMM,
		Scheduler:   scheduler.BAS(scheduler.SortedHint(false)),
		Incremental: true,
	})
	if got := res.Output.NumRows(); got != 100 {
		t.Errorf("output rows = %d, want 100", got)
	}
	if res.Metrics.BranchesPruned != 2 {
		t.Errorf("branches pruned = %d, want 2", res.Metrics.BranchesPruned)
	}
	if res.Metrics.ChooseEvals != 1 {
		t.Errorf("choose evals = %d, want 1", res.Metrics.ChooseEvals)
	}
}

func TestIncrementalDiscardsLosingBranches(t *testing.T) {
	g := buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator())
	res := runMDF(t, g, engine.Options{
		Cluster:     testCluster(1 << 30),
		Policy:      memorymgr.AMM,
		Scheduler:   scheduler.BAS(nil),
		Incremental: true,
	})
	// With max selection and incremental evaluation, at least one losing
	// branch dataset is discarded before the choose completes (R1a); the
	// final branch's eviction coincides with the choose itself.
	if res.Metrics.BranchesDiscarded < 1 {
		t.Errorf("branches discarded = %d, want >= 1", res.Metrics.BranchesDiscarded)
	}
}

func TestHitRatioDegradesWithSmallMemory(t *testing.T) {
	big := runMDF(t, buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator()), engine.Options{
		Cluster: testCluster(1 << 30), Policy: memorymgr.LRU, Scheduler: scheduler.BFS(),
	})
	small := runMDF(t, buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator()), engine.Options{
		Cluster: testCluster(1 << 20), Policy: memorymgr.LRU, Scheduler: scheduler.BFS(),
	})
	if hr := big.Metrics.Mem.HitRatio(); hr != 1 {
		t.Errorf("big-memory hit ratio = %v, want 1", hr)
	}
	if hr := small.Metrics.Mem.HitRatio(); hr >= 1 {
		t.Errorf("small-memory hit ratio = %v, want < 1", hr)
	}
	if small.CompletionTime() <= big.CompletionTime() {
		t.Errorf("small-memory run (%v) should be slower than big-memory run (%v)",
			small.CompletionTime(), big.CompletionTime())
	}
}

func TestBASPeakLiveDatasetsAtMostBFS(t *testing.T) {
	bas := runMDF(t, buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator()), engine.Options{
		Cluster: testCluster(1 << 30), Policy: memorymgr.AMM,
		Scheduler: scheduler.BAS(nil), Incremental: true,
	})
	bfs := runMDF(t, buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator()), engine.Options{
		Cluster: testCluster(1 << 30), Policy: memorymgr.LRU,
		Scheduler: scheduler.BFS(),
	})
	if bas.Metrics.PeakLiveDatasets > bfs.Metrics.PeakLiveDatasets {
		t.Errorf("BAS peak live %d > BFS peak live %d (Thm 4.3)",
			bas.Metrics.PeakLiveDatasets, bfs.Metrics.PeakLiveDatasets)
	}
}

func TestFailureRecoveryPreservesOutput(t *testing.T) {
	clean := runMDF(t, buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator()), engine.Options{
		Cluster: testCluster(1 << 30), Policy: memorymgr.AMM,
		Scheduler: scheduler.BAS(nil), Incremental: true,
	})
	failed := runMDF(t, buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator()), engine.Options{
		Cluster: testCluster(1 << 30), Policy: memorymgr.AMM,
		Scheduler: scheduler.BAS(nil), Incremental: true,
		Faults: &faults.Plan{Crashes: []faults.Crash{{Node: 1, AfterStages: 3}}},
	})
	if failed.Metrics.NodeCrashes != 1 {
		t.Errorf("node crashes = %d, want 1", failed.Metrics.NodeCrashes)
	}
	if clean.Output.NumRows() != failed.Output.NumRows() {
		t.Errorf("failure changed output: %d vs %d rows",
			clean.Output.NumRows(), failed.Output.NumRows())
	}
	if failed.CompletionTime() < clean.CompletionTime() {
		t.Errorf("failed run (%v) should not be faster than clean run (%v)",
			failed.CompletionTime(), clean.CompletionTime())
	}
}

func TestStragglerSlowsCompletion(t *testing.T) {
	c1 := testCluster(1 << 30)
	clean := runMDF(t, buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator()), engine.Options{
		Cluster: c1, Policy: memorymgr.AMM, Scheduler: scheduler.BAS(nil),
	})
	c2 := testCluster(1 << 30)
	c2.Nodes[0].SlowFactor = 10
	slow := runMDF(t, buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator()), engine.Options{
		Cluster: c2, Policy: memorymgr.AMM, Scheduler: scheduler.BAS(nil),
	})
	if slow.CompletionTime() <= clean.CompletionTime() {
		t.Errorf("straggler run (%v) should be slower than clean run (%v)",
			slow.CompletionTime(), clean.CompletionTime())
	}
}

func TestModeSelectorNotIncremental(t *testing.T) {
	g := buildFilterMDF(t, mdf.Mode(), mdf.FuncEvaluator("const", func(d *dataset.Dataset) float64 {
		if d.NumRows() >= 500 {
			return 1 // two branches score 1 -> mode
		}
		return 0
	}))
	res := runMDF(t, g, engine.Options{
		Cluster: testCluster(1 << 30), Policy: memorymgr.AMM,
		Scheduler: scheduler.BAS(nil), Incremental: true,
	})
	// Mode selects the two branches scoring 1: 500 + 900 rows concatenated.
	if got := res.Output.NumRows(); got != 1400 {
		t.Errorf("output rows = %d, want 1400", got)
	}
	if res.Metrics.BranchesPruned != 0 {
		t.Errorf("mode must not prune branches, pruned %d", res.Metrics.BranchesPruned)
	}
}

// TestWideDependencyChargesShuffle: a wide dependency moves (W-1)/W of the
// data over the network, so the same pipeline with a wide boundary takes
// longer than with a narrow one.
func TestWideDependencyChargesShuffle(t *testing.T) {
	build := func(wide bool) *graph.Graph {
		b := mdf.NewBuilder()
		src := b.Source("src", mdf.SourceFunc(func() *dataset.Dataset {
			d := dataset.FromRows("in", intRows(1000), 4, 1<<20)
			d.SetVirtualBytes(4 << 30)
			return d
		}), 0.001)
		var next *mdf.Node
		if wide {
			next = src.ThenWide("groupby", mdf.Identity("g"), 0.001)
		} else {
			next = src.Then("map", mdf.Identity("g"), 0.001)
		}
		next.Then("sink", mdf.Identity("out"), 0.001)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	opts := func() engine.Options {
		return engine.Options{
			Cluster: testCluster(16 << 30), Policy: memorymgr.LRU,
			Scheduler: scheduler.BFS(),
		}
	}
	narrow, err := engine.Execute(build(false), opts())
	if err != nil {
		t.Fatal(err)
	}
	wide, err := engine.Execute(build(true), opts())
	if err != nil {
		t.Fatal(err)
	}
	if wide.CompletionTime() <= narrow.CompletionTime() {
		t.Errorf("wide dependency (%0.2fs) should cost more than narrow (%0.2fs)",
			wide.CompletionTime(), narrow.CompletionTime())
	}
	// Expected shuffle time: 3/4 of each worker's 1 GB share at 1 Gbps.
	cfg := testCluster(1).Config
	expected := cfg.NetSec(sim.Bytes(float64(1<<30) * 0.75))
	gap := wide.CompletionTime() - narrow.CompletionTime()
	if gap < expected*0.5 || gap > expected*2 {
		t.Errorf("shuffle gap = %0.2fs, expected around %0.2fs", gap, expected)
	}
}

// The engine boxes a job's output once, on partitions the run owns: a
// columnar input shared by several jobs through SourceFromDataset never has
// its boxed view written, even when its payload reaches the output
// untouched, forwarded by an Identity branch, the choose and the sink.
func TestOutputBoxedSourceLeftColumnar(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	input := dataset.FromSlice("in", vals, 4, 1<<16)
	b := mdf.NewBuilder()
	src := b.Source("src", mdf.SourceFromDataset(input), 0.001)
	out := src.Explore("scale", []mdf.BranchSpec{{Label: "1", Hint: 1}, {Label: "2", Hint: 2}},
		mdf.NewChooser(mdf.FuncEvaluator("sum", func(d *dataset.Dataset) float64 {
			var s float64
			for _, v := range dataset.Flatten[float64](d) {
				s += v
			}
			return s
		}), mdf.Min()),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			if spec.Hint == 1 {
				return start.Then("forward", mdf.Identity("same"), 0.001)
			}
			return start.Then("double", mdf.Map("doubled", 1.0, func(v float64) float64 { return 2 * v }), 0.001)
		})
	out.Then("sink", mdf.Identity("out"), 0.001)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for job := 0; job < 2; job++ {
		res := runMDF(t, g, engine.Options{
			Cluster: testCluster(1 << 30), Policy: memorymgr.AMM,
			Scheduler: scheduler.BAS(nil), Incremental: true,
		})
		n := 0
		for i, p := range res.Output.Parts {
			if p.Rows == nil {
				t.Fatalf("job %d: output partition %d was not boxed", job, i)
			}
			for _, r := range p.Rows {
				if r.(float64) != float64(n) {
					t.Fatalf("job %d: output row %d = %v", job, n, r)
				}
				n++
			}
		}
		if n != len(vals) {
			t.Fatalf("job %d: %d output rows, want %d", job, n, len(vals))
		}
		first := &res.Output.Parts[0].Rows[0]
		res.Output.Box()
		if &res.Output.Parts[0].Rows[0] != first {
			t.Errorf("job %d: boxing a boxed output re-boxed it", job)
		}
		for i, p := range input.Parts {
			if p.Rows != nil {
				t.Fatalf("job %d boxed partition %d of the shared source", job, i)
			}
		}
	}
}
