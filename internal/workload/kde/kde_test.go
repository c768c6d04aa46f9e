package kde_test

import (
	"math"
	"runtime"
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

func TestEstimatorDensityPositiveNearData(t *testing.T) {
	k, _ := kde.KernelByName("gaussian")
	est := kde.NewEstimator(k, 0.5, []float64{0, 0.1, -0.1, 0.2})
	if d := est.Density(0); d <= 0 {
		t.Errorf("density at data centre = %f, want > 0", d)
	}
	if d0, d5 := est.Density(0), est.Density(5); d5 >= d0 {
		t.Errorf("density should fall away from data: %f vs %f", d0, d5)
	}
}

func TestLogLikelihoodPrefersMatchingBandwidth(t *testing.T) {
	// A spread sample should prefer a moderate bandwidth over a tiny one.
	k, _ := kde.KernelByName("gaussian")
	samples := make([]float64, 200)
	hold := make([]float64, 50)
	rngVals := func(seed float64, n int, out []float64) {
		v := seed
		for i := 0; i < n; i++ {
			v = math.Mod(v*997+0.1234, 1)
			out[i] = 4 * (v - 0.5)
		}
	}
	rngVals(0.37, 200, samples)
	rngVals(0.81, 50, hold)
	tiny := kde.NewEstimator(k, 0.001, samples).LogLikelihood(hold)
	good := kde.NewEstimator(k, 0.5, samples).LogLikelihood(hold)
	if good <= tiny {
		t.Errorf("bandwidth 0.5 loglik %f should beat 0.001 loglik %f", good, tiny)
	}
}

func TestMISEOfPerfectReferenceIsZeroish(t *testing.T) {
	k, _ := kde.KernelByName("gaussian")
	est := kde.NewEstimator(k, 0.3, []float64{0, 1, -1, 0.5, -0.5})
	mise := est.MISE(est.Density, -3, 3, 100)
	if mise != 0 {
		t.Errorf("MISE against itself = %f, want 0", mise)
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
}

func TestSilvermanBandwidth(t *testing.T) {
	// Standard normal sample of size n: Silverman gives ~1.06 n^(-1/5).
	rngVals := func(n int) []float64 {
		out := make([]float64, n)
		v := 0.5
		for i := range out {
			// Sum of 12 uniforms - 6 approximates a standard normal.
			var s float64
			for j := 0; j < 12; j++ {
				v = math.Mod(v*9301+0.49297, 1)
				s += v
			}
			out[i] = s - 6
		}
		return out
	}
	xs := rngVals(1000)
	h := kde.SilvermanBandwidth(xs)
	want := 1.06 * math.Pow(1000, -0.2)
	if h < want*0.5 || h > want*1.5 {
		t.Errorf("Silverman bandwidth = %v, want around %v", h, want)
	}
	if kde.SilvermanBandwidth([]float64{1}) != 1 {
		t.Error("degenerate input should return 1")
	}
	if kde.SilvermanBandwidth([]float64{2, 2, 2, 2}) <= 0 {
		t.Error("constant input must still give a positive bandwidth")
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

// A job at Defaults() allocates at most 1.5 MiB, graph construction and
// input generation included (1.13 MB measured; 8.3 MB while normalize,
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
	if ceiling := uint64(3 << 19); perJob > ceiling {
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
