package engine_test

import (
	"strings"
	"testing"

	"metadataflow/internal/engine"
	"metadataflow/internal/faults"
	"metadataflow/internal/mdf"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/scheduler"
)

func faultOpts(plan *faults.Plan) engine.Options {
	return engine.Options{
		Cluster: testCluster(1 << 30), Policy: memorymgr.AMM,
		Scheduler: scheduler.BAS(nil), Incremental: true,
		Checkpoint: true, Faults: plan,
	}
}

// TestFaultPlansPreserveDecisions is the core resilience invariant: for any
// valid fault plan the run terminates, chooses the same branches, produces
// the same output, and takes at least as long as the fault-free run.
func TestFaultPlansPreserveDecisions(t *testing.T) {
	clean := runMDF(t, buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator()), faultOpts(nil))
	cases := []struct {
		name string
		plan *faults.Plan
	}{
		{"transient crash", &faults.Plan{
			Crashes: []faults.Crash{{Node: 1, AfterStages: 3}},
		}},
		{"two crashes", &faults.Plan{
			Crashes: []faults.Crash{{Node: 1, AfterStages: 2}, {Node: 2, AfterStages: 4}},
		}},
		{"repeated crash of one node", &faults.Plan{
			Crashes: []faults.Crash{{Node: 1, AfterStages: 2}, {Node: 1, AfterStages: 4}},
		}},
		{"permanent crash", &faults.Plan{
			Crashes: []faults.Crash{{Node: 3, AfterStages: 3, Permanent: true}},
		}},
		{"slowdown window", &faults.Plan{
			Slowdowns: []faults.Window{{Node: 0, From: 0, To: 50, Factor: 8}},
		}},
		{"disk degradation", &faults.Plan{
			DiskFaults: []faults.Window{{Node: 2, From: 0, Factor: 4}},
		}},
		{"sub-budget evaluator panic", &faults.Plan{
			Panics: []faults.PanicSpec{{Target: faults.TargetEval, Times: 2}},
		}},
		{"kitchen sink", &faults.Plan{
			Crashes:    []faults.Crash{{Node: 1, AfterStages: 2}, {Node: 3, AfterStages: 4, Permanent: true}},
			Slowdowns:  []faults.Window{{Node: 0, From: 0, To: 30, Factor: 4}},
			DiskFaults: []faults.Window{{Node: 2, From: 10, Factor: 2}},
			Panics:     []faults.PanicSpec{{Target: faults.TargetEval, Times: 1}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := runMDF(t, buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator()), faultOpts(tc.plan))
			if got, want := res.Output.NumRows(), clean.Output.NumRows(); got != want {
				t.Errorf("output rows = %d, want %d", got, want)
			}
			if got, want := res.Metrics.ChooseEvals, clean.Metrics.ChooseEvals; got != want {
				t.Errorf("choose evals = %d, want %d", got, want)
			}
			if got, want := res.Metrics.BranchesPruned, clean.Metrics.BranchesPruned; got != want {
				t.Errorf("branches pruned = %d, want %d", got, want)
			}
			if res.CompletionTime() < clean.CompletionTime() {
				t.Errorf("faulty run (%v) finished before fault-free run (%v)",
					res.CompletionTime(), clean.CompletionTime())
			}
			if res.Metrics.FaultsInjected == 0 {
				t.Error("plan injected no faults")
			}
		})
	}
}

// TestMultiFailureWithPanickingEvaluator is the acceptance scenario: two node
// crashes plus a panicking evaluator must complete without a process panic
// and with the same choose decisions as the fault-free run.
func TestMultiFailureWithPanickingEvaluator(t *testing.T) {
	clean := runMDF(t, buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator()), faultOpts(nil))
	plan := &faults.Plan{
		Crashes: []faults.Crash{{Node: 1, AfterStages: 2}, {Node: 2, AfterStages: 4}},
		Panics:  []faults.PanicSpec{{Target: faults.TargetEval, Times: 1}},
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
	if res.Metrics.PanicsInjected < 1 {
		t.Errorf("panics injected = %d, want >= 1", res.Metrics.PanicsInjected)
	}
	if res.Metrics.Retries < 1 {
		t.Errorf("retries = %d, want >= 1", res.Metrics.Retries)
	}
}

// TestPersistentTransformPanicQuarantinesBranch exhausts the retry budget of
// one branch's transform; the branch is quarantined and the choose decides
// among the survivors.
func TestPersistentTransformPanicQuarantinesBranch(t *testing.T) {
	plan := &faults.Plan{
		Panics: []faults.PanicSpec{{Op: "filter<limit=900", Target: faults.TargetTransform, Times: 3}},
	}
	res := runMDF(t, buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator()), faultOpts(plan))
	// Max over size without the 900 branch selects limit=500.
	if got := res.Output.NumRows(); got != 500 {
		t.Errorf("output rows = %d, want 500 (largest surviving branch)", got)
	}
	if res.Metrics.BranchesQuarantined != 1 {
		t.Errorf("branches quarantined = %d, want 1", res.Metrics.BranchesQuarantined)
	}
	if len(res.Quarantined) != 1 {
		t.Fatalf("quarantine records = %d, want 1", len(res.Quarantined))
	}
	if rec := res.Quarantined[0]; !strings.Contains(rec.Reason, "panicked") {
		t.Errorf("quarantine reason %q does not mention the panic", rec.Reason)
	}
	if res.Metrics.ChooseEvals != 2 {
		t.Errorf("choose evals = %d, want 2 (quarantined branch never scored)", res.Metrics.ChooseEvals)
	}
}

// TestAllBranchesQuarantinedDegradesGracefully panics every evaluator call:
// all branches are quarantined and the run completes with an empty selection
// instead of crashing.
func TestAllBranchesQuarantinedDegradesGracefully(t *testing.T) {
	plan := &faults.Plan{
		Panics: []faults.PanicSpec{{Target: faults.TargetEval, Times: 9}},
	}
	res := runMDF(t, buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator()), faultOpts(plan))
	if res.Metrics.BranchesQuarantined != 3 {
		t.Errorf("branches quarantined = %d, want 3", res.Metrics.BranchesQuarantined)
	}
	if res.Output != nil && res.Output.NumRows() != 0 {
		t.Errorf("output rows = %d, want 0 (no branch survived)", res.Output.NumRows())
	}
}

// TestTrunkPanicFailsTheRun verifies a persistent panic outside any
// exploration scope cannot be quarantined and surfaces as a run error — but
// never as a process panic.
func TestTrunkPanicFailsTheRun(t *testing.T) {
	plan := &faults.Plan{
		Panics: []faults.PanicSpec{{Op: "sink", Target: faults.TargetTransform, Times: 3}},
	}
	g := buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator())
	_, err := engine.Execute(g, faultOpts(plan))
	if err == nil {
		t.Fatal("persistent trunk panic must fail the run")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Errorf("error %q does not mention the panic", err)
	}
}

// TestPermanentCrashRebalancesOntoSurvivors checks graceful degradation: the
// dead node leaves the live set and its partitions move to survivors.
func TestPermanentCrashRebalancesOntoSurvivors(t *testing.T) {
	cl := testCluster(1 << 30)
	opts := faultOpts(&faults.Plan{
		Crashes: []faults.Crash{{Node: 3, AfterStages: 3, Permanent: true}},
	})
	opts.Cluster = cl
	res := runMDF(t, buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator()), opts)
	if got := cl.NumLive(); got != 3 {
		t.Errorf("live nodes after run = %d, want 3", got)
	}
	if res.Metrics.NodeCrashes != 1 {
		t.Errorf("node crashes = %d, want 1", res.Metrics.NodeCrashes)
	}
	if res.Metrics.PartitionsRebalanced+res.Metrics.PartitionsRederived == 0 {
		t.Error("dead node's partitions were neither rebalanced nor re-derived")
	}
	if got := res.Output.NumRows(); got != 900 {
		t.Errorf("output rows = %d, want 900", got)
	}
}

// TestFaultRunsAreDeterministic runs the same plan twice and demands
// identical virtual completion times and fault metrics.
func TestFaultRunsAreDeterministic(t *testing.T) {
	plan := &faults.Plan{
		Crashes:    []faults.Crash{{Node: 1, AfterStages: 2}, {Node: 3, AfterStages: 4, Permanent: true}},
		Slowdowns:  []faults.Window{{Node: 0, From: 0, To: 30, Factor: 4}},
		DiskFaults: []faults.Window{{Node: 2, From: 10, Factor: 2}},
		Panics:     []faults.PanicSpec{{Target: faults.TargetEval, Times: 1}},
	}
	a := runMDF(t, buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator()), faultOpts(plan))
	b := runMDF(t, buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator()), faultOpts(plan))
	if a.CompletionTime() != b.CompletionTime() {
		t.Errorf("completion times differ: %v vs %v", a.CompletionTime(), b.CompletionTime())
	}
	if a.Metrics.FaultsInjected != b.Metrics.FaultsInjected ||
		a.Metrics.NodeCrashes != b.Metrics.NodeCrashes ||
		a.Metrics.Retries != b.Metrics.Retries ||
		a.Metrics.RecoverySec != b.Metrics.RecoverySec {
		t.Errorf("fault metrics differ: %+v vs %+v", a.Metrics, b.Metrics)
	}
}
