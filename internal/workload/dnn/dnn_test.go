package dnn_test

import (
	"sync"
	"testing"

	"metadataflow/internal/baseline"
	"metadataflow/internal/cluster"
	"metadataflow/internal/engine"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/workload/dnn"
)

func smallParams() dnn.Params {
	p := dnn.Defaults()
	p.Train, p.Val, p.Dims = 200, 80, 16
	p.Hidden = 12
	p.VirtualBytes = 1 << 28
	p.Inits = dnn.Inits()[:4]
	p.LearningRates = []float64{0.001, 0.01}
	p.Momenta = []float64{0.5, 0.9}
	p.Seed = 7
	return p
}

func testCluster() *cluster.Cluster {
	cfg := cluster.DefaultConfig()
	cfg.Workers = 4
	cfg.MemPerWorker = 1 << 30
	return cluster.MustNew(cfg)
}

func TestTrainingImprovesAccuracy(t *testing.T) {
	examples := dnn.GenerateExamples(400, 16, 10, 0.5, 3)
	m := dnn.NewModel(16, 12, 10, dnn.Init{Kind: dnn.InitGaussian, A: 0.1}, 1)
	before := m.Accuracy(examples[300:])
	for i := 0; i < 5; i++ {
		m.TrainEpoch(examples[:300], 0.01, 0.9)
	}
	after := m.Accuracy(examples[300:])
	if after <= before {
		t.Errorf("training should improve accuracy: before=%f after=%f", before, after)
	}
	if after < 0.5 {
		t.Errorf("after 5 epochs accuracy = %f, want >= 0.5 on separable data", after)
	}
}

func TestLossDecreasesOverEpochs(t *testing.T) {
	examples := dnn.GenerateExamples(300, 16, 10, 0.5, 3)
	m := dnn.NewModel(16, 12, 10, dnn.Init{Kind: dnn.InitGaussian, A: 0.1}, 1)
	first := m.TrainEpoch(examples, 0.01, 0.9)
	var last float64
	for i := 0; i < 4; i++ {
		last = m.TrainEpoch(examples, 0.01, 0.9)
	}
	if last >= first {
		t.Errorf("loss should decrease: first=%f last=%f", first, last)
	}
}

func TestInitStrategiesProduceDifferentModels(t *testing.T) {
	a := dnn.NewModel(8, 4, 3, dnn.Init{Kind: dnn.InitGaussian, A: 0.1}, 1)
	b := dnn.NewModel(8, 4, 3, dnn.Init{Kind: dnn.InitUniform, A: 0.1}, 1)
	same := true
	for i := range a.W1 {
		if a.W1[i] != b.W1[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different init strategies produced identical weights")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	m := dnn.NewModel(8, 4, 3, dnn.Init{Kind: dnn.InitGaussian, A: 0.1}, 1)
	c := m.Clone()
	c.W1[0] += 100
	if m.W1[0] == c.W1[0] {
		t.Error("clone shares weight storage with original")
	}
}

func TestPathsCount(t *testing.T) {
	p := smallParams()
	if got, want := p.Paths(), 4*2*2; got != want {
		t.Errorf("Paths() = %d, want %d", got, want)
	}
}

func TestExhaustiveMDFRuns(t *testing.T) {
	p := smallParams()
	g, err := dnn.BuildExhaustiveMDF(p)
	if err != nil {
		t.Fatalf("BuildExhaustiveMDF: %v", err)
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
	if res.Metrics.ChooseEvals != p.Paths() {
		t.Errorf("choose evals = %d, want %d", res.Metrics.ChooseEvals, p.Paths())
	}
	if res.Output == nil || res.Output.NumRows() != 1 {
		t.Fatalf("want a single selected model, got %v", res.Output)
	}
}

func TestEarlyChooseExploresFewerPaths(t *testing.T) {
	p := smallParams()
	g, err := dnn.BuildEarlyChooseMDF(p)
	if err != nil {
		t.Fatalf("BuildEarlyChooseMDF: %v", err)
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
	wantEvals := len(p.Inits) + len(p.LearningRates)*len(p.Momenta)
	if res.Metrics.ChooseEvals != wantEvals {
		t.Errorf("choose evals = %d, want %d (|W| + |R×M|)", res.Metrics.ChooseEvals, wantEvals)
	}
}

func TestEarlyChooseFasterThanExhaustive(t *testing.T) {
	p := smallParams()
	ex, err := dnn.BuildExhaustiveMDF(p)
	if err != nil {
		t.Fatalf("BuildExhaustiveMDF: %v", err)
	}
	exRes, err := engine.Execute(ex, engine.Options{
		Cluster: testCluster(), Policy: memorymgr.AMM,
		Scheduler: scheduler.BAS(nil), Incremental: true,
	})
	if err != nil {
		t.Fatalf("Execute exhaustive: %v", err)
	}
	ec, err := dnn.BuildEarlyChooseMDF(p)
	if err != nil {
		t.Fatalf("BuildEarlyChooseMDF: %v", err)
	}
	ecRes, err := engine.Execute(ec, engine.Options{
		Cluster: testCluster(), Policy: memorymgr.AMM,
		Scheduler: scheduler.BAS(nil), Incremental: true,
	})
	if err != nil {
		t.Fatalf("Execute early-choose: %v", err)
	}
	if ecRes.CompletionTime() >= exRes.CompletionTime() {
		t.Errorf("early-choose (%0.1fs) should beat exhaustive (%0.1fs)",
			ecRes.CompletionTime(), exRes.CompletionTime())
	}
}

func TestExpandExhaustiveFamily(t *testing.T) {
	p := smallParams()
	g, err := dnn.BuildExhaustiveMDF(p)
	if err != nil {
		t.Fatalf("BuildExhaustiveMDF: %v", err)
	}
	jobs, err := baseline.ExpandJobs(g)
	if err != nil {
		t.Fatalf("ExpandJobs: %v", err)
	}
	if len(jobs) != p.Paths() {
		t.Errorf("expanded jobs = %d, want %d", len(jobs), p.Paths())
	}
}

func TestWeightsAndHyperOnlyVariants(t *testing.T) {
	p := smallParams()
	w, err := dnn.BuildWeightsOnlyMDF(p)
	if err != nil {
		t.Fatalf("BuildWeightsOnlyMDF: %v", err)
	}
	h, err := dnn.BuildHyperOnlyMDF(p)
	if err != nil {
		t.Fatalf("BuildHyperOnlyMDF: %v", err)
	}
	for label, g := range map[string]interface{ Validate() error }{
		"weights": w, "hyper": h,
	} {
		if err := g.Validate(); err != nil {
			t.Errorf("%s MDF invalid: %v", label, err)
		}
	}
}

func smallIterativeParams() dnn.IterativeParams {
	p := dnn.DefaultIterative()
	p.Train, p.Val, p.Dims = 200, 80, 16
	p.Hidden = 12
	p.VirtualBytes = 1 << 28
	p.Seed = 7
	p.Epochs = 4
	return p
}

func TestIterativeMDFTerminatesDivergingRates(t *testing.T) {
	p := smallIterativeParams()
	g, err := dnn.BuildIterativeMDF(p)
	if err != nil {
		t.Fatalf("BuildIterativeMDF: %v", err)
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
		t.Fatal("no model selected")
	}
	// With learning rates up to 4.0 on tanh/softmax, at least one branch
	// diverges and its remaining epochs are skipped: total compute must be
	// well below branches x epochs x per-epoch cost.
	branches := len(p.Inits) * len(p.LearningRates) * len(p.Momenta)
	fullCost := float64(branches*p.Epochs) * p.TrainCostSec
	if res.Metrics.ComputeSec.Seconds() >= fullCost {
		t.Errorf("compute %0.0fs should be below the no-termination bound %0.0fs",
			res.Metrics.ComputeSec.Seconds(), fullCost)
	}
}

func TestIterativeMDFBeatsNoGuard(t *testing.T) {
	p := smallIterativeParams()
	guarded, err := dnn.BuildIterativeMDF(p)
	if err != nil {
		t.Fatal(err)
	}
	noGuard := p
	noGuard.DivergenceFactor = 1e18 // effectively never terminates
	noGuard.MinImprovement = 0      // disable the stall check too
	unguarded, err := dnn.BuildIterativeMDF(noGuard)
	if err != nil {
		t.Fatal(err)
	}
	gRes, err := engine.Execute(guarded, engine.Options{
		Cluster: testCluster(), Policy: memorymgr.AMM,
		Scheduler: scheduler.BAS(nil), Incremental: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	uRes, err := engine.Execute(unguarded, engine.Options{
		Cluster: testCluster(), Policy: memorymgr.AMM,
		Scheduler: scheduler.BAS(nil), Incremental: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if gRes.CompletionTime() >= uRes.CompletionTime() {
		t.Errorf("in-loop termination (%0.0fs) should beat full execution (%0.0fs)",
			gRes.CompletionTime(), uRes.CompletionTime())
	}
}

func TestIterativeParamsValidation(t *testing.T) {
	p := smallIterativeParams()
	p.Epochs = 0
	if _, err := dnn.BuildIterativeMDF(p); err == nil {
		t.Error("zero epochs accepted")
	}
	p = smallIterativeParams()
	p.DivergenceFactor = 1
	if _, err := dnn.BuildIterativeMDF(p); err == nil {
		t.Error("divergence factor 1 accepted")
	}
}

// BenchmarkJob builds and runs one early-choose deep learning MDF at Defaults() on the
// paper's cluster with the full MDF machinery (BAS, AMM, incremental
// choose): the host-time cost of this job kind, graph construction and input
// generation included.
func BenchmarkJob(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := dnn.BuildEarlyChooseMDF(dnn.Defaults())
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

// TestConcurrentJobs builds and runs dnn jobs with different seeds from
// several goroutines at once, as callers of the library may: graph builders
// (AccuracyEvaluator) and operator functions (continued training) of all of
// them go through the package's shared example-set cache. Under -race this
// fails on an unguarded cache.
func TestConcurrentJobs(t *testing.T) {
	var wg sync.WaitGroup
	for seed := int64(101); seed <= 104; seed++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := smallParams()
			p.Seed = seed
			g, err := dnn.BuildEarlyChooseMDF(p)
			if err != nil {
				t.Errorf("seed %d: BuildEarlyChooseMDF: %v", seed, err)
				return
			}
			res, err := engine.Execute(g, engine.Options{
				Cluster:     testCluster(),
				Policy:      memorymgr.AMM,
				Scheduler:   scheduler.BAS(nil),
				Incremental: true,
			})
			if err != nil {
				t.Errorf("seed %d: Execute: %v", seed, err)
				return
			}
			if res.Output == nil || res.Output.NumRows() != 1 {
				t.Errorf("seed %d: want a single selected model, got %v", seed, res.Output)
			}
		}()
	}
	wg.Wait()
}
