package timeseries_test

import (
	"runtime"
	"testing"

	"metadataflow/internal/baseline"
	"metadataflow/internal/cluster"
	"metadataflow/internal/engine"
	"metadataflow/internal/mdf"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/workload/timeseries"
)

func smallParams() timeseries.Params {
	p := timeseries.Defaults()
	p.Rows = 3000
	p.Partitions = 4
	p.VirtualBytes = 1 << 28
	p.WindowLengths = []int{2, 5}
	p.Thresholds = []float64{1.001, 1.05}
	p.MarkWindows = []int{3}
	p.MagDiffs = []float64{1.0}
	p.Durations = []int{50, 200}
	return p
}

func testCluster() *cluster.Cluster {
	cfg := cluster.DefaultConfig()
	cfg.Workers = 4
	cfg.MemPerWorker = 1 << 30
	return cluster.MustNew(cfg)
}

func TestBranchesCount(t *testing.T) {
	p := smallParams()
	if got, want := p.Branches(), 2*2*1*1*2; got != want {
		t.Errorf("Branches() = %d, want %d", got, want)
	}
}

func TestGenerateShape(t *testing.T) {
	p := smallParams()
	d := timeseries.Generate(p)
	if d.NumRows() != p.Rows {
		t.Fatalf("rows = %d, want %d", d.NumRows(), p.Rows)
	}
	if d.NumPartitions() != p.Partitions {
		t.Fatalf("partitions = %d, want %d", d.NumPartitions(), p.Partitions)
	}
	// Timestamps must be strictly increasing across partitions.
	var last int64 = -1
	for _, r := range d.Rows() {
		pt := r.(timeseries.Point)
		if pt.T <= last {
			t.Fatalf("non-monotonic timestamp %d after %d", pt.T, last)
		}
		last = pt.T
	}
}

func TestNestedMDFRuns(t *testing.T) {
	g, err := timeseries.BuildMDF(smallParams())
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
	if res.Output == nil {
		t.Fatal("no output")
	}
	if res.CompletionTime() <= 0 {
		t.Error("non-positive completion time")
	}
}

func TestFlatMDFSelectorVariants(t *testing.T) {
	p := smallParams()
	p.WindowLengths = []int{2, 4, 6, 8}
	p.Thresholds = []float64{1.0001, 1.001, 1.01, 1.1}
	for _, tc := range []struct {
		name string
		sel  mdf.Selector
	}{
		{"all-threshold", mdf.Threshold(0.05, false)},
		{"top-4", mdf.TopK(4)},
		{"first-4", mdf.KThreshold(4, 0.05, false)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := timeseries.BuildFlatMDF(p, tc.sel, true)
			if err != nil {
				t.Fatalf("BuildFlatMDF: %v", err)
			}
			res, err := engine.Execute(g, engine.Options{
				Cluster:     testCluster(),
				Policy:      memorymgr.AMM,
				Scheduler:   scheduler.BAS(scheduler.SortedHint(false)),
				Incremental: true,
			})
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			if res.Output == nil {
				t.Fatal("no output")
			}
		})
	}
}

func TestFirstKStopsEarly(t *testing.T) {
	p := smallParams()
	p.WindowLengths = []int{2, 4, 6, 8}
	p.Thresholds = []float64{1.0001, 1.001, 1.01, 1.1}
	full, err := timeseries.BuildFlatMDF(p, mdf.TopK(4), false)
	if err != nil {
		t.Fatalf("BuildFlatMDF: %v", err)
	}
	fullRes, err := engine.Execute(full, engine.Options{
		Cluster: testCluster(), Policy: memorymgr.AMM,
		Scheduler: scheduler.BAS(nil), Incremental: true,
	})
	if err != nil {
		t.Fatalf("Execute full: %v", err)
	}
	firstK, err := timeseries.BuildFlatMDF(p, mdf.KThreshold(4, 0.05, false), false)
	if err != nil {
		t.Fatalf("BuildFlatMDF: %v", err)
	}
	firstKRes, err := engine.Execute(firstK, engine.Options{
		Cluster: testCluster(), Policy: memorymgr.AMM,
		Scheduler: scheduler.BAS(nil), Incremental: true,
	})
	if err != nil {
		t.Fatalf("Execute firstK: %v", err)
	}
	if firstKRes.Metrics.ChooseEvals >= fullRes.Metrics.ChooseEvals {
		t.Errorf("first-4 evals (%d) should be fewer than top-4 evals (%d)",
			firstKRes.Metrics.ChooseEvals, fullRes.Metrics.ChooseEvals)
	}
	if firstKRes.CompletionTime() >= fullRes.CompletionTime() {
		t.Errorf("first-4 (%0.1fs) should beat top-4 (%0.1fs)",
			firstKRes.CompletionTime(), fullRes.CompletionTime())
	}
}

func TestExpansionCount(t *testing.T) {
	p := smallParams()
	g, err := timeseries.BuildMDF(p)
	if err != nil {
		t.Fatalf("BuildMDF: %v", err)
	}
	jobs, err := baseline.ExpandJobs(g)
	if err != nil {
		t.Fatalf("ExpandJobs: %v", err)
	}
	if want := p.Branches(); len(jobs) != want {
		t.Errorf("expanded jobs = %d, want %d", len(jobs), want)
	}
}

// runJob builds and runs one time series MDF at Defaults() on the paper's
// cluster with the full MDF machinery (BAS, AMM, incremental choose).
func runJob(tb testing.TB) {
	g, err := timeseries.BuildMDF(timeseries.Defaults())
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := engine.Execute(g, engine.Options{
		Cluster:     cluster.MustNew(cluster.DefaultConfig()),
		Policy:      memorymgr.AMM,
		Scheduler:   scheduler.BAS(nil),
		Incremental: true,
	}); err != nil {
		tb.Fatal(err)
	}
}

// A job at Defaults() allocates at most 4 MiB, graph construction and input
// generation included (3.0 MB measured; 17.4 MB while every whole-dataset
// operator copied its input and mask and mark grew their output by append).
// Bytes, not objects: what a regression here costs is garbage-collector work
// and resident memory.
func TestJobAllocatedBytes(t *testing.T) {
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		runJob(t)
	}
	runtime.ReadMemStats(&after)
	perJob := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes allocated per job", perJob)
	if ceiling := uint64(4 << 20); perJob > ceiling {
		t.Errorf("a job allocated %d bytes, want <= %d", perJob, ceiling)
	}
}

// BenchmarkJob is the host-time cost of this job kind (runJob), graph
// construction and input generation included.
func BenchmarkJob(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runJob(b)
	}
}
