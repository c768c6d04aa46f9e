package kde_test

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"metadataflow/internal/baseline"
	"metadataflow/internal/cluster"
	"metadataflow/internal/engine"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/workload/kde"
)

func smallParams() kde.Params {
	p := kde.Defaults()
	p.Rows = 2000
	p.Partitions = 4
	p.VirtualBytes = 1 << 28
	p.KernelNames = []string{"gaussian", "top-hat", "epanechnikov"}
	p.Bandwidths = []float64{0.1, 0.3}
	p.FitSample = 150
	return p
}

func testCluster() *cluster.Cluster {
	cfg := cluster.DefaultConfig()
	cfg.Workers = 4
	cfg.MemPerWorker = 1 << 30
	return cluster.MustNew(cfg)
}

func TestKernelsIntegrateToOne(t *testing.T) {
	// Every kernel must integrate to ~1 over its support.
	for _, k := range kde.Kernels() {
		lo, hi := -6.0, 6.0
		n := 20000
		step := (hi - lo) / float64(n)
		var sum float64
		for i := 0; i < n; i++ {
			sum += k.Fn(lo+float64(i)*step) * step
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("kernel %s integrates to %f, want 1", k.Name, sum)
		}
	}
}

func TestKernelByName(t *testing.T) {
	if _, err := kde.KernelByName("gaussian"); err != nil {
		t.Errorf("gaussian lookup failed: %v", err)
	}
	if _, err := kde.KernelByName("nonexistent"); err == nil {
		t.Error("unknown kernel should error")
	}
}

func TestBuildMDFRuns(t *testing.T) {
	g, err := kde.BuildMDF(smallParams())
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
		t.Fatal("profiling job produced no output")
	}
	// 2 preprocess branches, each with 6 kde branches: 14 evals (12 inner
	// + 2 outer).
	if res.Metrics.ChooseEvals != 14 {
		t.Errorf("choose evals = %d, want 14", res.Metrics.ChooseEvals)
	}
}

func TestExpandedFamilySize(t *testing.T) {
	p := smallParams()
	g, err := kde.BuildMDF(p)
	if err != nil {
		t.Fatalf("BuildMDF: %v", err)
	}
	jobs, err := baseline.ExpandJobs(g)
	if err != nil {
		t.Fatalf("ExpandJobs: %v", err)
	}
	// N=2 preprocessing × (3 kernels × 2 bandwidths) = 12 concrete jobs.
	if len(jobs) != 12 {
		t.Errorf("expanded jobs = %d, want 12", len(jobs))
	}
}

func TestScopedMDFPrunesAggressiveOutlierBranch(t *testing.T) {
	p := kde.DefaultScoped()
	p.Rows = 2000
	p.Partitions = 4
	p.VirtualBytes = 1 << 28
	p.KernelNames = []string{"gaussian", "top-hat"}
	p.Bandwidths = []float64{0.2}
	p.FitSample = 150
	// Thresholds sorted descending by aggressiveness: o=0.1 removes nearly
	// everything, o=3 nearly nothing. With a monotone evaluator, sorted
	// hints and first-1 selection, later branches can be pruned.
	p.OutlierThresholds = []float64{3.0, 2.0, 0.5, 0.1}
	g, err := kde.BuildScopedMDF(p)
	if err != nil {
		t.Fatalf("BuildScopedMDF: %v", err)
	}
	res, err := engine.Execute(g, engine.Options{
		Cluster:     testCluster(),
		Policy:      memorymgr.AMM,
		Scheduler:   scheduler.BAS(scheduler.SortedHint(true)),
		Incremental: true,
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	// o=3.0 keeps >80% immediately: first-1 threshold is satisfied, so the
	// remaining outlier branches are superfluous (Tab. 1 non-exhaustive).
	if res.Metrics.BranchesPruned < 3 {
		t.Errorf("branches pruned = %d, want >= 3", res.Metrics.BranchesPruned)
	}
	if res.Output == nil || res.Output.NumRows() == 0 {
		t.Fatal("scoped job produced no output")
	}
}

// TestScopedMDFEmptyInputFails closes the outlier scope with a bound no
// branch meets, so the choose keeps nothing and every estimate reads an
// empty input: the run fails with the error normalize and standardize give
// for one, not with a quarantine per estimate branch.
func TestScopedMDFEmptyInputFails(t *testing.T) {
	p := kde.DefaultScoped()
	p.Rows = 2000
	p.Partitions = 4
	p.VirtualBytes = 1 << 28
	p.FitSample = 150
	p.MaxRemovedFraction = 1e-9
	g, err := kde.BuildScopedMDF(p)
	if err != nil {
		t.Fatalf("BuildScopedMDF: %v", err)
	}
	res, err := engine.Execute(g, engine.Options{
		Cluster:   testCluster(),
		Policy:    memorymgr.AMM,
		Scheduler: scheduler.BAS(scheduler.SortedHint(true)),
	})
	if err == nil || !strings.Contains(err.Error(), "kde: empty input") {
		var quarantined int
		if res != nil {
			quarantined = res.Metrics.BranchesQuarantined
		}
		t.Fatalf("Execute: err = %v (%d branches quarantined), want kde: empty input", err, quarantined)
	}
}

func TestExampleMDFSelectsLowestMISE(t *testing.T) {
	p := kde.DefaultExample()
	p.Rows = 3000
	p.Partitions = 4
	p.VirtualBytes = 1 << 28
	p.FitSample = 200
	g, err := kde.BuildExampleMDF(p)
	if err != nil {
		t.Fatalf("BuildExampleMDF: %v", err)
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
	// Four branches: 2 thresholds x 2 kernels; min selection keeps one.
	if res.Metrics.ChooseEvals != 4 {
		t.Errorf("choose evals = %d, want 4", res.Metrics.ChooseEvals)
	}
	if res.Output.NumRows() != p.GridPoints {
		t.Errorf("profile rows = %d, want %d", res.Output.NumRows(), p.GridPoints)
	}
	// The selected profile should fit the true mixture reasonably well: its
	// MISE must be below a loose bound (a gaussian kernel on the mixture
	// with h=0.2 stays well under this).
	mise := kde.MISEEvaluator(kde.MixtureDensity()).Score(res.Output)
	if mise > 0.02 {
		t.Errorf("selected MISE = %v, want <= 0.02", mise)
	}
}

func TestMISEEvaluatorOrdersKernels(t *testing.T) {
	// On smooth bimodal data, the gaussian kernel should achieve a lower
	// MISE than the discontinuous top-hat at the same bandwidth.
	p := kde.DefaultExample()
	p.Rows = 3000
	p.Partitions = 4
	p.VirtualBytes = 1 << 28
	p.FitSample = 200
	p.OutlierThresholds = []float64{3.0}
	p.KernelNames = []string{"gaussian", "top-hat"}
	g, err := kde.BuildExampleMDF(p)
	if err != nil {
		t.Fatalf("BuildExampleMDF: %v", err)
	}
	res, err := engine.Execute(g, engine.Options{
		Cluster:   testCluster(),
		Policy:    memorymgr.AMM,
		Scheduler: scheduler.BAS(nil),
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.Output.NumRows() != p.GridPoints {
		t.Fatalf("no profile selected")
	}
}

func TestExampleParamsValidation(t *testing.T) {
	p := kde.DefaultExample()
	p.OutlierThresholds = []float64{1.5}
	p.KernelNames = []string{"gaussian"}
	if _, err := kde.BuildExampleMDF(p); err == nil {
		t.Error("single combination should be rejected")
	}
	p = kde.DefaultExample()
	p.Bandwidth = 0
	if _, err := kde.BuildExampleMDF(p); err == nil {
		t.Error("zero bandwidth should be rejected")
	}
	// A fit sample below 1 would make every estimate branch panic.
	for _, n := range []int{0, -5} {
		p = kde.DefaultExample()
		p.FitSample = n
		if _, err := kde.BuildExampleMDF(p); err == nil {
			t.Errorf("fit sample %d should be rejected", n)
		}
	}
}

// runJob builds and runs one data profiling MDF at Defaults() on the paper's
// cluster with the full MDF machinery (BAS, AMM, incremental choose).
func runJob(tb testing.TB) {
	g, err := kde.BuildMDF(kde.Defaults())
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

// A job at Defaults() allocates at most 1 MiB, graph construction and
// input generation included (0.69 MB measured, the 42 estimate operators
// reading 6 density passes over 2 fits; 0.70 MB while each computed its own
// densities from the 2 fits; 0.86 MB while each drew its own sample; 1.10 MB while every
// estimate operator regrew its sample once, 8.3 MB while normalize,
// standardize and the 42 estimate operators each copied their input). Bytes,
// not objects: what a regression here costs is garbage-collector work and
// resident memory.
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
	if ceiling := uint64(1 << 20); perJob > ceiling {
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

// TestValidateRejectsNonFinite holds both Validate methods to their ranges
// at NaN and the infinities, which a bound written as x <= 0 lets through.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		set  func(p *kde.Params)
	}{
		{"bandwidth NaN", func(p *kde.Params) { p.Bandwidths = []float64{nan, 0.2} }},
		{"bandwidth +Inf", func(p *kde.Params) { p.Bandwidths = []float64{0.2, inf} }},
		{"bandwidth -Inf", func(p *kde.Params) { p.Bandwidths = []float64{-inf} }},
		{"holdout fraction NaN", func(p *kde.Params) { p.HoldoutFraction = nan }},
		{"holdout fraction +Inf", func(p *kde.Params) { p.HoldoutFraction = inf }},
		{"holdout fraction -Inf", func(p *kde.Params) { p.HoldoutFraction = -inf }},
	}
	for _, tc := range cases {
		p := kde.Defaults()
		tc.set(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("Params with %s: Validate = nil, want an error", tc.name)
		}
	}
	for _, h := range []float64{nan, inf, -inf} {
		p := kde.DefaultExample()
		p.Bandwidth = h
		if err := p.Validate(); err == nil {
			t.Errorf("ExampleParams with bandwidth %g: Validate = nil, want an error", h)
		}
	}
	if err := kde.Defaults().Validate(); err != nil {
		t.Errorf("Defaults: %v", err)
	}
	if err := kde.DefaultExample().Validate(); err != nil {
		t.Errorf("DefaultExample: %v", err)
	}
}
