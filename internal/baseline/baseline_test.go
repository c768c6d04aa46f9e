package baseline_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"metadataflow/internal/baseline"
	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/scheduler"
)

func testCluster() *cluster.Cluster {
	cfg := cluster.DefaultConfig()
	cfg.Workers = 4
	cfg.MemPerWorker = 1 << 30
	return cluster.MustNew(cfg)
}

func intRows(n int) []dataset.Row {
	rows := make([]dataset.Row, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// buildNestedMDF builds src -> explore{A,B} each with a nested explore{x,y}
// -> choose -> sink (4 combinations).
func buildNestedMDF(t *testing.T) *graph.Graph {
	t.Helper()
	b := mdf.NewBuilder()
	src := b.Source("src", mdf.SourceFunc(func() *dataset.Dataset {
		return dataset.FromRows("in", intRows(100), 4, 1<<20)
	}), 0.001)
	outer := src.Explore("outer", mdf.Branches("A", "B"),
		mdf.NewChooser(mdf.SizeEvaluator(), mdf.Max()),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			mid := start.Then("mid-"+spec.Label, mdf.Identity("mid"), 0.001)
			return mid.Explore("inner-"+spec.Label, mdf.Branches("x", "y"),
				mdf.NewChooser(mdf.SizeEvaluator(), mdf.Max()),
				func(inner *mdf.Node, ispec mdf.BranchSpec) *mdf.Node {
					keep := 30 + 10*int(ispec.Hint) + 5*int(spec.Hint)
					return inner.Then("f-"+spec.Label+ispec.Label,
						mdf.FilterRows("f", func(r dataset.Row) bool { return r.(int) < keep }), 0.001)
				})
		})
	outer.Then("sink", mdf.Identity("out"), 0.001)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// buildSequentialScopesMDF builds two scopes in sequence (2 x 3 combos).
func buildSequentialScopesMDF(t *testing.T) *graph.Graph {
	t.Helper()
	b := mdf.NewBuilder()
	src := b.Source("src", mdf.SourceFunc(func() *dataset.Dataset {
		return dataset.FromRows("in", intRows(100), 4, 1<<20)
	}), 0.001)
	s1 := src.Explore("s1", mdf.Branches("a", "b"),
		mdf.NewChooser(mdf.SizeEvaluator(), mdf.Max()),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			return start.Then("p"+spec.Label, mdf.Identity("p"), 0.001)
		})
	s2 := s1.Explore("s2", mdf.Branches("x", "y", "z"),
		mdf.NewChooser(mdf.SizeEvaluator(), mdf.Max()),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			return start.Then("q"+spec.Label, mdf.Identity("q"), 0.001)
		})
	s2.Then("sink", mdf.Identity("out"), 0.001)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCombinationsNested(t *testing.T) {
	g := buildNestedMDF(t)
	choices, err := baseline.Combinations(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 4 {
		t.Fatalf("combinations = %d, want 4 (2 outer x 2 inner)", len(choices))
	}
	// Each choice must assign the outer explore and exactly one inner.
	for _, c := range choices {
		if len(c) != 2 {
			t.Fatalf("choice %v should assign 2 explores", c)
		}
	}
}

func TestCombinationsSequentialScopes(t *testing.T) {
	g := buildSequentialScopesMDF(t)
	choices, err := baseline.Combinations(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 6 {
		t.Fatalf("combinations = %d, want 6 (2 x 3 sequential scopes)", len(choices))
	}
}

func TestBuildConcreteRemovesMetaOperators(t *testing.T) {
	g := buildNestedMDF(t)
	choices, err := baseline.Combinations(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range choices {
		job, err := baseline.BuildConcrete(g, c)
		if err != nil {
			t.Fatalf("choice %d: %v", i, err)
		}
		if err := job.Validate(); err != nil {
			t.Fatalf("choice %d: invalid concrete job: %v", i, err)
		}
		if len(job.Explores()) != 0 || len(job.Chooses()) != 0 {
			t.Fatalf("choice %d: concrete job still has meta operators", i)
		}
	}
}

func TestConcreteJobsProduceSameResults(t *testing.T) {
	// Each concrete job must produce the same rows its branch would in the
	// MDF: job (A=0, inner y=1) keeps rows < 30+10*1+5*0 = 40.
	g := buildNestedMDF(t)
	jobs, err := baseline.ExpandJobs(g)
	if err != nil {
		t.Fatal(err)
	}
	wants := []int{30, 40, 35, 45} // (A,x) (A,y) (B,x) (B,y)
	for i, job := range jobs {
		plan, err := graph.BuildPlan(job)
		if err != nil {
			t.Fatal(err)
		}
		_ = plan
		res, err := baseline.SingleJob(job, baseline.Config{Cluster: testCluster(), Policy: memorymgr.LRU})
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if got := res.Output.NumRows(); got != wants[i] {
			t.Errorf("job %d output rows = %d, want %d", i, got, wants[i])
		}
	}
}

func TestSequentialTimesAccumulate(t *testing.T) {
	g := buildNestedMDF(t)
	jobs, err := baseline.ExpandJobs(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := baseline.Parallel(jobs, 1, baseline.Config{Cluster: testCluster(), Policy: memorymgr.LRU})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 4 {
		t.Fatalf("jobs = %d, want 4", len(res.Jobs))
	}
	// Sequential jobs must not overlap: each job starts after the previous.
	for i := 1; i < len(res.Jobs); i++ {
		if res.Jobs[i].Start < res.Jobs[i-1].End-1e-9 {
			t.Errorf("job %d started at %v before job %d ended at %v",
				i, res.Jobs[i].Start, i-1, res.Jobs[i-1].End)
		}
	}
	if res.CompletionTime != res.Jobs[3].End {
		t.Error("completion time must be the last job's end")
	}
}

func TestParallelOverlapsJobs(t *testing.T) {
	g := buildNestedMDF(t)
	jobs, err := baseline.ExpandJobs(g)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := baseline.Parallel(jobs, 1, baseline.Config{Cluster: testCluster(), Policy: memorymgr.LRU})
	if err != nil {
		t.Fatal(err)
	}
	par, err := baseline.Parallel(jobs, 4, baseline.Config{Cluster: testCluster(), Policy: memorymgr.LRU})
	if err != nil {
		t.Fatal(err)
	}
	if par.CompletionTime > seq.CompletionTime {
		t.Errorf("parallel (%v) must not exceed sequential (%v)", par.CompletionTime, seq.CompletionTime)
	}
	// At least two jobs must overlap in time.
	overlap := false
	for i := 0; i < len(par.Jobs) && !overlap; i++ {
		for j := i + 1; j < len(par.Jobs); j++ {
			if par.Jobs[i].Start < par.Jobs[j].End && par.Jobs[j].Start < par.Jobs[i].End {
				overlap = true
				break
			}
		}
	}
	if !overlap {
		t.Error("no jobs overlapped under 4-parallel execution")
	}
}

func TestParallelRejectsBadK(t *testing.T) {
	g := buildNestedMDF(t)
	jobs, _ := baseline.ExpandJobs(g)
	if _, err := baseline.Parallel(jobs, 0, baseline.Config{Cluster: testCluster()}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestEmptyJobListRejected(t *testing.T) {
	if _, err := baseline.Parallel(nil, 1, baseline.Config{Cluster: testCluster()}); err == nil {
		t.Fatal("empty job list accepted")
	}
	if _, err := baseline.Parallel(nil, 2, baseline.Config{Cluster: testCluster()}); err == nil {
		t.Fatal("empty job list accepted")
	}
}

// TestRunErrorNamesTheJob: a job that fails — here by cancellation — comes
// back wrapped with its index at every parallelism, the cause still
// matchable.
func TestRunErrorNamesTheJob(t *testing.T) {
	jobs, err := baseline.ExpandJobs(buildNestedMDF(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, k := range []int{1, 3} {
		_, err := baseline.Parallel(jobs, k, baseline.Config{Cluster: testCluster(), Policy: memorymgr.LRU, Context: ctx})
		if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "baseline: job 0: ") {
			t.Errorf("k=%d: err = %v, want context.Canceled wrapped as baseline: job 0", k, err)
		}
	}
}

func TestSingleJobUsesConfiguredScheduler(t *testing.T) {
	g := buildNestedMDF(t)
	res, err := baseline.SingleJob(g, baseline.Config{
		Cluster: testCluster(), Policy: memorymgr.AMM,
		NewScheduler: func() scheduler.Policy { return scheduler.BAS(nil) },
		Incremental:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Max over sizes selects (B, y): 45 rows.
	if got := res.Output.NumRows(); got != 45 {
		t.Errorf("output rows = %d, want 45", got)
	}
}

// buildFlatMDF builds a single-scope MDF with n filter branches keeping
// different row counts, choosing the max size.
func buildFlatMDF(t *testing.T, keeps []int) *graph.Graph {
	t.Helper()
	b := mdf.NewBuilder()
	src := b.Source("src", mdf.SourceFunc(func() *dataset.Dataset {
		return dataset.FromRows("in", intRows(500), 4, 1<<18)
	}), 0.001)
	specs := make([]mdf.BranchSpec, len(keeps))
	for i := range specs {
		specs[i] = mdf.BranchSpec{Label: string(rune('a' + i)), Hint: float64(i)}
	}
	out := src.Explore("e", specs, mdf.NewChooser(mdf.SizeEvaluator(), mdf.Max()),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			keep := keeps[int(spec.Hint)]
			return start.Then("f"+spec.Label,
				mdf.FilterRows("f", func(r dataset.Row) bool { return r.(int) < keep }), 0.001)
		})
	out.Then("sink", mdf.Identity("out"), 0.001)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestMDFEquivalentToBestExpandedJob: for a single-scope MDF with max
// selection, the MDF's output must equal the best result a user would pick
// after running every expanded job separately (the semantics-preservation
// contract of §3.1).
func TestMDFEquivalentToBestExpandedJob(t *testing.T) {
	for _, keeps := range [][]int{
		{100, 400, 250},
		{10, 20, 30, 40, 50},
		{321, 123},
	} {
		g := buildFlatMDF(t, keeps)
		mdfRes, err := baseline.SingleJob(g, baseline.Config{
			Cluster: testCluster(), Policy: memorymgr.AMM,
			NewScheduler: func() scheduler.Policy { return scheduler.BAS(nil) },
			Incremental:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := baseline.ExpandJobs(g)
		if err != nil {
			t.Fatal(err)
		}
		best := 0
		for _, job := range jobs {
			res, err := baseline.SingleJob(job, baseline.Config{Cluster: testCluster(), Policy: memorymgr.LRU})
			if err != nil {
				t.Fatal(err)
			}
			if res.Output.NumRows() > best {
				best = res.Output.NumRows()
			}
		}
		if mdfRes.Output.NumRows() != best {
			t.Errorf("keeps=%v: MDF selected %d rows, best separate job has %d",
				keeps, mdfRes.Output.NumRows(), best)
		}
	}
}
