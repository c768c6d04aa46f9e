package engine_test

import (
	"testing"

	"metadataflow/internal/dataset"
	"metadataflow/internal/engine"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/obs"
	"metadataflow/internal/scheduler"
)

// TestDiamondMergeExecution: a transform with two predecessors (built with
// Merge) receives both inputs in edge order and the engine accounts both.
func TestDiamondMergeExecution(t *testing.T) {
	b := mdf.NewBuilder()
	src := b.Source("src", mdf.SourceFunc(func() *dataset.Dataset {
		return dataset.FromRows("in", intRows(100), 4, 1<<16)
	}), 0.001)
	left := src.Then("evens", mdf.FilterRows("e", func(r dataset.Row) bool {
		return r.(int)%2 == 0
	}), 0.001)
	right := src.Then("big", mdf.FilterRows("b", func(r dataset.Row) bool {
		return r.(int) >= 90
	}), 0.001)
	merged := left.Merge("union", func(ins []*dataset.Dataset) (*dataset.Dataset, error) {
		return dataset.Concat("union", ins...).Alias("union"), nil
	}, 0.002, right)
	merged.Then("sink", mdf.Identity("out"), 0.001)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Execute(g, engine.Options{
		Cluster: testCluster(1 << 30), Policy: memorymgr.AMM,
		Scheduler: scheduler.BAS(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	// 50 evens + 10 big (overlap kept twice: a concatenation, not a set
	// union).
	if got := res.Output.NumRows(); got != 60 {
		t.Errorf("merged rows = %d, want 60", got)
	}
}

// TestEmptySelectionPropagates: when no branch passes the selection, the
// choose produces an empty dataset and downstream stages still run.
func TestEmptySelectionPropagates(t *testing.T) {
	g := buildFilterMDF(t, mdf.Threshold(1e9, false), mdf.SizeEvaluator())
	res, err := engine.Execute(g, engine.Options{
		Cluster: testCluster(1 << 30), Policy: memorymgr.AMM,
		Scheduler: scheduler.BAS(nil), Incremental: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output == nil {
		t.Fatal("no output dataset")
	}
	if res.Output.NumRows() != 0 {
		t.Errorf("output rows = %d, want 0 (nothing selected)", res.Output.NumRows())
	}
}

// TestPinReusedSurvivesPressure: with PinReused, the dataset feeding an
// explore stays in memory under pressure, so branch reads keep hitting.
func TestPinReusedSurvivesPressure(t *testing.T) {
	build := func() *graph.Graph {
		b := mdf.NewBuilder()
		src := b.Source("src", mdf.SourceFunc(func() *dataset.Dataset {
			d := dataset.FromRows("in", intRows(1000), 4, 1)
			d.SetVirtualBytes(3 << 30) // large relative to the 1 GB budget
			return d
		}), 0.001)
		specs := make([]mdf.BranchSpec, 6)
		for i := range specs {
			specs[i] = mdf.BranchSpec{Label: string(rune('a' + i)), Hint: float64(i)}
		}
		out := src.Explore("e", specs, mdf.NewChooser(mdf.SizeEvaluator(), mdf.Max()),
			func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
				return start.Then("m"+spec.Label, mdf.MapRows("m", 1.0, func(r dataset.Row) dataset.Row {
					return r
				}), 0.001)
			})
		out.Then("sink", mdf.Identity("out"), 0.001)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	run := func(pin bool) *engine.Result {
		res, err := engine.Execute(build(), engine.Options{
			Cluster: testCluster(1 << 30), Policy: memorymgr.LRU,
			Scheduler: scheduler.BFS(), PinReused: pin,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	unpinned := run(false)
	pinned := run(true)
	if pinned.Metrics.Mem.HitRatio() < unpinned.Metrics.Mem.HitRatio() {
		t.Errorf("pinning should not lower the hit ratio: %0.3f vs %0.3f",
			pinned.Metrics.Mem.HitRatio(), unpinned.Metrics.Mem.HitRatio())
	}
	if pinned.CompletionTime() > unpinned.CompletionTime() {
		t.Errorf("pinning the reused input should not slow the run: %0.1fs vs %0.1fs",
			pinned.CompletionTime(), unpinned.CompletionTime())
	}
}

// TestOversizeWorkingSet: a stage whose single partition exceeds worker
// memory still completes (the allocator routes it via disk).
func TestOversizeWorkingSet(t *testing.T) {
	b := mdf.NewBuilder()
	src := b.Source("src", mdf.SourceFunc(func() *dataset.Dataset {
		d := dataset.FromRows("in", intRows(10), 1, 1) // one partition
		d.SetVirtualBytes(8 << 30)                     // 8 GB partition vs 1 GB budget
		return d
	}), 0.001)
	// Wide boundaries force the oversize partition through the allocator.
	mid := src.ThenWide("m", mdf.Identity("m"), 0.001)
	mid.ThenWide("sink", mdf.Identity("out"), 0.001)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Execute(g, engine.Options{
		Cluster: testCluster(1 << 30), Policy: memorymgr.LRU,
		Scheduler: scheduler.BFS(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.NumRows() != 10 {
		t.Errorf("rows = %d, want 10", res.Output.NumRows())
	}
	if res.Metrics.Mem.HitRatio() >= 1 {
		t.Error("oversize partitions must be disk accesses")
	}
}

func TestSpillReportAttributesDatasets(t *testing.T) {
	// Build a run with memory pressure and check the spill report names the
	// heavy datasets, largest first.
	b := mdf.NewBuilder()
	src := b.Source("src", mdf.SourceFunc(func() *dataset.Dataset {
		d := dataset.FromRows("in", intRows(100), 4, 1)
		d.SetVirtualBytes(3 << 30)
		return d
	}), 0.001)
	specs := make([]mdf.BranchSpec, 5)
	for i := range specs {
		specs[i] = mdf.BranchSpec{Label: string(rune('a' + i)), Hint: float64(i)}
	}
	out := src.Explore("e", specs, mdf.NewChooser(mdf.SizeEvaluator(), mdf.Max()),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			return start.Then("m"+spec.Label, mdf.Identity("m"), 0.001)
		})
	out.Then("sink", mdf.Identity("out"), 0.001)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := graph.BuildPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	run, err := engine.NewRun(plan, engine.Options{
		Cluster: testCluster(1 << 30), Policy: memorymgr.LRU,
		Scheduler: scheduler.BFS(),
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	report := run.SpillReport(3)
	if len(report) == 0 {
		t.Fatal("pressure run produced no spill entries")
	}
	if len(report) > 3 {
		t.Fatalf("top-3 report has %d entries", len(report))
	}
	for i := 1; i < len(report); i++ {
		if report[i].Bytes > report[i-1].Bytes {
			t.Fatal("spill report not sorted by volume")
		}
	}
	if report[0].String() == "" {
		t.Error("empty entry string")
	}
}

// TestSpeculativeMitigatesStraggler: with speculation, a straggler's impact
// drops from ~slow-factor to ~lost-capacity share, and results are
// unchanged.
func TestSpeculativeMitigatesStraggler(t *testing.T) {
	run := func(slow float64, speculative bool) *engine.Result {
		g := buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator())
		cl := testCluster(1 << 30)
		cl.Nodes[0].SlowFactor = slow
		plan, err := graph.BuildPlan(g)
		if err != nil {
			t.Fatal(err)
		}
		r, err := engine.NewRun(plan, engine.Options{
			Cluster: cl, Policy: memorymgr.AMM,
			Scheduler: scheduler.BAS(nil), Incremental: true,
			Speculative: speculative,
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunToCompletion()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(1, false)
	plain := run(4, false)
	spec := run(4, true)
	if spec.Output.NumRows() != clean.Output.NumRows() {
		t.Fatal("speculation changed the result")
	}
	if spec.CompletionTime() >= plain.CompletionTime() {
		t.Errorf("speculation (%0.2fs) should beat no mitigation (%0.2fs)",
			spec.CompletionTime(), plain.CompletionTime())
	}
	// Speculation rebalances compute only; I/O stays bound to the
	// straggler's data placement, so the mitigated run lands between the
	// lost-capacity share and the unmitigated slow factor.
	if spec.CompletionTime() > 3*clean.CompletionTime() {
		t.Errorf("mitigated run (%0.2fs) too slow vs clean (%0.2fs)",
			spec.CompletionTime(), clean.CompletionTime())
	}
}

// TestEventKindStrings pins the span-kind names the engine emits: they are
// the track labels of the Chrome trace, the kind column of `mdf run -trace`
// and the lat.<kind> series names. A fault-free pruning choose emits
// exactly these four.
func TestEventKindStrings(t *testing.T) {
	rec := obs.NewRecorder()
	runMDF(t, buildFilterMDF(t, mdf.KThreshold(1, 50, false), mdf.SizeEvaluator()), engine.Options{
		Cluster: testCluster(1 << 30), Policy: memorymgr.AMM,
		Scheduler: scheduler.BAS(nil), Incremental: true, Probe: rec,
	})
	got := map[string]bool{}
	for _, row := range rec.TimelineRows() {
		got[string(row.Kind)] = true
	}
	want := []string{"stage", "eval", "choose", "pruned"}
	for _, k := range want {
		if !got[k] {
			t.Errorf("no %q row in the timeline (kinds: %v)", k, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("timeline kinds = %v, want exactly %v", got, want)
	}
}

// TestAMMConsultsFutureAccesses: under memory pressure with AMM, the engine
// feeds acc(d) to the allocator and the reused explore input survives
// eviction better than under LRU, yielding a higher hit ratio.
func TestAMMConsultsFutureAccesses(t *testing.T) {
	build := func() *graph.Graph {
		b := mdf.NewBuilder()
		src := b.Source("src", mdf.SourceFunc(func() *dataset.Dataset {
			d := dataset.FromRows("in", intRows(500), 4, 1)
			d.SetVirtualBytes(2 << 30)
			return d
		}), 0.001)
		specs := make([]mdf.BranchSpec, 8)
		for i := range specs {
			specs[i] = mdf.BranchSpec{Label: string(rune('a' + i)), Hint: float64(i)}
		}
		out := src.Explore("e", specs, mdf.NewChooser(mdf.SizeEvaluator(), mdf.Max()),
			func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
				return start.Then("m"+spec.Label,
					mdf.MapRows("m", 1.0, func(r dataset.Row) dataset.Row { return r }), 0.001)
			})
		out.Then("sink", mdf.Identity("out"), 0.001)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	run := func(pol memorymgr.PolicyKind) *engine.Result {
		res, err := engine.Execute(build(), engine.Options{
			Cluster: testCluster(1 << 30), Policy: pol,
			Scheduler: scheduler.BFS(), // BFS piles up branch outputs
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lru := run(memorymgr.LRU)
	amm := run(memorymgr.AMM)
	if amm.Metrics.Mem.Evictions == 0 {
		t.Fatal("no memory pressure: test is vacuous")
	}
	if amm.Metrics.Mem.HitRatio() < lru.Metrics.Mem.HitRatio() {
		t.Errorf("AMM hit ratio (%0.3f) should be >= LRU (%0.3f)",
			amm.Metrics.Mem.HitRatio(), lru.Metrics.Mem.HitRatio())
	}
	if amm.CompletionTime() > lru.CompletionTime() {
		t.Errorf("AMM (%0.1fs) should not be slower than LRU (%0.1fs) on a fan-out job",
			amm.CompletionTime(), lru.CompletionTime())
	}
}

// TestRunAccessors covers the introspection surface of a stepped run.
func TestRunAccessors(t *testing.T) {
	g := buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator())
	plan, err := graph.BuildPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	run, err := engine.NewRun(plan, engine.Options{
		Cluster: testCluster(1 << 30), Policy: memorymgr.AMM,
		Scheduler: scheduler.BAS(nil), Incremental: true,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if progress(run).Done {
		t.Fatal("fresh run claims done")
	}
	if !run.Step() {
		t.Fatal("first step ended the run")
	}
	if run.Now() < 0 {
		t.Fatal("negative virtual time")
	}
	// Drive to completion and verify terminal state.
	for run.Step() {
	}
	if !progress(run).Done || run.Err() != nil {
		t.Fatalf("run not cleanly done: %v", run.Err())
	}
	// The AMM access counter reports zero for unknown partitions.
	if got := run.FutureAccesses(dataset.PartKey{Dataset: 999999, Index: 0}); got != 0 {
		t.Errorf("unknown partition future accesses = %d, want 0", got)
	}
}
