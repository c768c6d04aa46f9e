package synthetic_test

import (
	"fmt"
	"testing"

	"metadataflow/internal/baseline"
	"metadataflow/internal/cluster"
	"metadataflow/internal/engine"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/stats"
	"metadataflow/internal/workload/synthetic"
)

func smallParams() synthetic.Params {
	p := synthetic.Defaults()
	p.Rows = 400
	p.Partitions = 4
	p.VirtualBytes = 1 << 28
	p.OuterBranches = 3
	p.InnerBranches = 3
	return p
}

func testCluster() *cluster.Cluster {
	cfg := cluster.DefaultConfig()
	cfg.Workers = 4
	cfg.MemPerWorker = 1 << 30
	return cluster.MustNew(cfg)
}

func TestBuildMDFValidates(t *testing.T) {
	g, err := synthetic.BuildMDF(smallParams())
	if err != nil {
		t.Fatalf("BuildMDF: %v", err)
	}
	scopes, err := g.MatchScopes()
	if err != nil {
		t.Fatalf("MatchScopes: %v", err)
	}
	// One outer scope plus one inner scope per outer branch.
	if want := 1 + 3; len(scopes) != want {
		t.Errorf("scopes = %d, want %d", len(scopes), want)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	p := smallParams()
	p.OuterBranches = 1
	if _, err := synthetic.BuildMDF(p); err == nil {
		t.Error("outer branching factor 1 should be rejected")
	}
	p = smallParams()
	p.OpsPerItem = 0
	if _, err := synthetic.BuildMDF(p); err == nil {
		t.Error("zero ops per item should be rejected")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := synthetic.Generate(smallParams())
	b := synthetic.Generate(smallParams())
	if a.NumRows() != b.NumRows() {
		t.Fatalf("row counts differ: %d vs %d", a.NumRows(), b.NumRows())
	}
	ar, br := a.Rows(), b.Rows()
	for i := range ar {
		if ar[i].(synthetic.Pair) != br[i].(synthetic.Pair) {
			t.Fatalf("row %d differs", i)
		}
	}
	if a.VirtualBytes() != smallParams().VirtualBytes {
		t.Errorf("virtual bytes = %d, want %d", a.VirtualBytes(), smallParams().VirtualBytes)
	}
}

// The generator cuts its keys from one string; boxed, its rows are the pairs
// a Sprintf per row drew from the same stream.
func TestGenerateMatchesRowwiseGenerator(t *testing.T) {
	p := smallParams()
	rng := stats.NewRNG(p.Seed)
	rows := synthetic.Generate(p).Rows()
	if len(rows) != p.Rows {
		t.Fatalf("rows = %d, want %d", len(rows), p.Rows)
	}
	for i, r := range rows {
		want := synthetic.Pair{
			Key: fmt.Sprintf("k%08x", rng.Intn(1<<30)),
			Val: int64(rng.Intn(1 << 20)),
		}
		if r.(synthetic.Pair) != want {
			t.Fatalf("row %d = %+v, want %+v", i, r, want)
		}
	}
}

// A job allocates at most two objects per input row — the generator's keys
// and the one boxing of the output — whatever the number of branches that
// transform every row: the struct-of-arrays operators allocate per
// partition. The per-row share is read off two input sizes, so that the
// engine's own allocations, which do not depend on the rows, cancel.
func TestJobAllocationsPerRow(t *testing.T) {
	allocs := func(rows int) float64 {
		p := smallParams()
		p.Rows = rows
		return testing.AllocsPerRun(3, func() {
			g, err := synthetic.BuildMDF(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := engine.Execute(g, engine.Options{
				Cluster: testCluster(), Policy: memorymgr.AMM,
				Scheduler: scheduler.BAS(nil), Incremental: true,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const small, large = 1000, 9000
	atSmall, atLarge := allocs(small), allocs(large)
	t.Logf("allocations: %.0f at %d rows, %.0f at %d rows", atSmall, small, atLarge, large)
	if perRow := (atLarge - atSmall) / (large - small); perRow > 2 {
		t.Errorf("a synthetic job allocates %.2f objects per input row, want <= 2", perRow)
	}
}

func TestRunMDFEndToEnd(t *testing.T) {
	g, err := synthetic.BuildMDF(smallParams())
	if err != nil {
		t.Fatalf("BuildMDF: %v", err)
	}
	res, err := engine.Execute(g, engine.Options{
		Cluster:     testCluster(),
		Policy:      memorymgr.AMM,
		Scheduler:   scheduler.BAS(nil),
		Incremental: true,
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.Output == nil || res.Output.NumRows() == 0 {
		t.Fatal("no output produced")
	}
	if res.Output.NumRows() != 400 {
		t.Errorf("output rows = %d, want 400 (selection forwards one branch)", res.Output.NumRows())
	}
	if res.CompletionTime() <= 0 {
		t.Error("non-positive completion time")
	}
}

func TestExpandMatchesCombinationCount(t *testing.T) {
	p := smallParams()
	g, err := synthetic.BuildMDF(p)
	if err != nil {
		t.Fatalf("BuildMDF: %v", err)
	}
	jobs, err := baseline.ExpandJobs(g)
	if err != nil {
		t.Fatalf("ExpandJobs: %v", err)
	}
	if want := p.OuterBranches * p.InnerBranches; len(jobs) != want {
		t.Fatalf("expanded jobs = %d, want %d", len(jobs), want)
	}
	for i, job := range jobs {
		if err := job.Validate(); err != nil {
			t.Errorf("job %d invalid: %v", i, err)
		}
		if len(job.Explores()) != 0 || len(job.Chooses()) != 0 {
			t.Errorf("job %d still contains explore/choose operators", i)
		}
	}
}

func TestSequentialSlowerThanMDF(t *testing.T) {
	p := smallParams()
	g, err := synthetic.BuildMDF(p)
	if err != nil {
		t.Fatalf("BuildMDF: %v", err)
	}
	jobs, err := baseline.ExpandJobs(g)
	if err != nil {
		t.Fatalf("ExpandJobs: %v", err)
	}
	seq, err := baseline.Parallel(jobs, 1, baseline.Config{
		Cluster: testCluster(), Policy: memorymgr.LRU,
	})
	if err != nil {
		t.Fatalf("Sequential: %v", err)
	}
	mdfRes, err := baseline.SingleJob(g, baseline.Config{
		Cluster: testCluster(), Policy: memorymgr.AMM,
		NewScheduler: func() scheduler.Policy { return scheduler.BAS(nil) },
		Incremental:  true,
	})
	if err != nil {
		t.Fatalf("SingleJob: %v", err)
	}
	if mdfRes.CompletionTime() >= seq.CompletionTime {
		t.Errorf("MDF (%0.1fs) should beat sequential (%0.1fs)",
			mdfRes.CompletionTime(), seq.CompletionTime)
	}
}

func TestParallelFasterThanSequential(t *testing.T) {
	p := smallParams()
	g, err := synthetic.BuildMDF(p)
	if err != nil {
		t.Fatalf("BuildMDF: %v", err)
	}
	jobs, err := baseline.ExpandJobs(g)
	if err != nil {
		t.Fatalf("ExpandJobs: %v", err)
	}
	seq, err := baseline.Parallel(jobs, 1, baseline.Config{Cluster: testCluster(), Policy: memorymgr.LRU})
	if err != nil {
		t.Fatalf("Sequential: %v", err)
	}
	par, err := baseline.Parallel(jobs, 4, baseline.Config{Cluster: testCluster(), Policy: memorymgr.LRU})
	if err != nil {
		t.Fatalf("Parallel: %v", err)
	}
	if par.CompletionTime >= seq.CompletionTime {
		t.Errorf("4-parallel (%0.1fs) should beat sequential (%0.1fs)",
			par.CompletionTime, seq.CompletionTime)
	}
}

// BenchmarkJob builds and runs one synthetic MDF at Defaults() on the
// paper's cluster with the full MDF machinery (BAS, AMM, incremental
// choose): the host-time cost of this job kind, graph construction and input
// generation included.
func BenchmarkJob(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := synthetic.BuildMDF(synthetic.Defaults())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := engine.Execute(g, engine.Options{
			Cluster:     cluster.MustNew(cluster.DefaultConfig()),
			Policy:      memorymgr.AMM,
			Scheduler:   scheduler.BAS(nil),
			Incremental: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
