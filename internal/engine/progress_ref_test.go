package engine

import (
	"fmt"
	"reflect"
	"testing"

	"metadataflow/internal/cluster"
	"metadataflow/internal/faults"
	"metadataflow/internal/graph"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/obs"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/stats"
)

// refProgress is the progress document computed the way the engine did
// before it kept per-branch counters: a walk over every stage of every
// branch of every scope, reading executed and skipped. It is the reference
// ProgressInto is checked against and survives only here.
func refProgress(r *Run) Progress {
	p := Progress{
		NowSec:         r.now,
		Done:           r.done,
		StagesExecuted: r.metrics.StagesExecuted,
		StagesPruned:   r.metrics.StagesPruned,
		StagesTotal:    len(r.plan.Stages),
	}
	for si, sc := range r.plan.Scopes {
		chooseSt := r.plan.StageOf(sc.Choose)
		for b := range sc.Branches {
			bp := BranchProgress{Scope: si, Branch: b, Choose: chooseSt.String()}
			for _, st := range r.plan.BranchStages(sc, b) {
				bp.Stages++
				if r.executed[st.ID] {
					bp.Done++
				} else if r.skipped[st.ID] {
					bp.Pruned++
				}
			}
			if bp.Stages > 0 {
				bp.Completion = float64(bp.Done+bp.Pruned) / float64(bp.Stages)
			}
			bp.State = BranchPending
			cs := r.sessions[chooseSt.ID]
			switch {
			case cs != nil && cs.quarantined[b]:
				bp.State = BranchQuarantined
			case cs != nil && cs.offered[b]:
				bp.State, bp.Score = BranchScored, cs.scores[b]
			case bp.Stages > 0 && bp.Pruned == bp.Stages:
				bp.State = BranchPruned
			case bp.Done > 0 || bp.Pruned > 0:
				bp.State = BranchRunning
			}
			p.Branches = append(p.Branches, bp)
		}
	}
	return p
}

// TestProgressMatchesReference steps random nested MDFs — first-k pruning,
// a fault plan that quarantines one branch and retries another, BFS and BAS,
// incremental evaluation on and off, probed and not — and after every Step
// compares three documents: the from-scratch walk, a fresh Progress, and one
// buffer handed to ProgressInto again and again.
func TestProgressMatchesReference(t *testing.T) {
	prunedRuns := 0
	for seed := int64(1); seed <= 8; seed++ {
		g, branchOps := refMDF(t, stats.NewRNG(seed*31))
		frng := stats.NewRNG(seed * 613)
		fplan := &faults.Plan{
			Panics: []faults.PanicSpec{
				{Op: branchOps[frng.Intn(len(branchOps))], Target: faults.TargetTransform, Times: 99},
				{Op: branchOps[frng.Intn(len(branchOps))], Target: faults.TargetTransform, Times: 1},
				{Target: faults.TargetEval, Times: 3},
			},
		}
		for _, sched := range []func() scheduler.Policy{
			scheduler.BFS,
			func() scheduler.Policy { return scheduler.BAS(nil) },
		} {
			for _, incremental := range []bool{false, true} {
				for _, fp := range []*faults.Plan{nil, fplan} {
					p, err := graph.BuildPlan(g)
					if err != nil {
						t.Fatal(err)
					}
					cfg := cluster.DefaultConfig()
					cfg.Workers = 4
					cfg.MemPerWorker = 1 << 30
					var probe obs.Probe
					if incremental {
						probe = obs.NewRecorder()
					}
					policy := sched()
					name := fmt.Sprintf("seed=%d %s incremental=%v faults=%v", seed, policy.Name(), incremental, fp != nil)
					r, err := NewRun(p, Options{
						Cluster: cluster.MustNew(cfg), Policy: memorymgr.AMM,
						Scheduler: policy, Incremental: incremental, Faults: fp, Probe: probe,
					}, 0)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					var reused Progress
					states := map[string]bool{}
					for step, alive := 0, true; alive; step++ {
						if step > 0 {
							alive = r.Step()
						}
						want := refProgress(r)
						if got := r.Progress(); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: step %d: Progress\n got  %+v\n want %+v", name, step, got, want)
						}
						r.ProgressInto(&reused)
						if !reflect.DeepEqual(reused, want) {
							t.Fatalf("%s: step %d: reused buffer\n got  %+v\n want %+v", name, step, reused, want)
						}
						for _, bp := range want.Branches {
							states[bp.State] = true
						}
					}
					if r.Err() != nil {
						t.Fatalf("%s: %v", name, r.Err())
					}
					if states[BranchPruned] {
						prunedRuns++
					}
					if fp != nil && !states[BranchQuarantined] {
						t.Errorf("%s: the fault plan quarantined no branch", name)
					}
					if !states[BranchScored] || !states[BranchRunning] {
						t.Errorf("%s: branch states seen %v, want scored and running among them", name, states)
					}
				}
			}
		}
	}
	if prunedRuns == 0 {
		t.Error("no run pruned a whole branch")
	}
}

// TestProgressIntoDoesNotAllocate pins the point of the in-place form: once
// the buffer has the run's branch count, refreshing it is free.
func TestProgressIntoDoesNotAllocate(t *testing.T) {
	g, _ := refMDF(t, stats.NewRNG(31))
	p, err := graph.BuildPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRun(p, Options{Cluster: cluster.MustNew(cluster.DefaultConfig())}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10 && r.Step(); i++ {
	}
	var buf Progress
	r.ProgressInto(&buf)
	if n := testing.AllocsPerRun(100, func() { r.ProgressInto(&buf) }); n != 0 {
		t.Errorf("ProgressInto on a sized buffer allocates %v times", n)
	}
}
