package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"metadataflow/internal/engine"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/obs"
	"metadataflow/internal/scheduler"
)

// progress returns the run's progress in a fresh document.
func progress(run *engine.Run) engine.Progress {
	var p engine.Progress
	run.ProgressInto(&p)
	return p
}

func TestProgressTracksBranches(t *testing.T) {
	g := buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator())
	plan, err := graph.BuildPlan(g)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	run, err := engine.NewRun(plan, engine.Options{
		Cluster:     testCluster(1 << 30),
		Policy:      memorymgr.AMM,
		Scheduler:   scheduler.BAS(nil),
		Incremental: true,
	}, 0)
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}

	p := progress(run)
	if p.Done || p.StagesExecuted != 0 {
		t.Fatalf("fresh run progress: %+v", p)
	}
	if len(p.Branches) != 3 {
		t.Fatalf("branches = %d, want 3", len(p.Branches))
	}
	for _, bp := range p.Branches {
		if bp.State != engine.BranchPending || bp.Completion != 0 {
			t.Fatalf("fresh branch not pending: %+v", bp)
		}
	}

	// Step until at least one branch has been scored mid-run.
	sawPartial := false
	for run.Step() {
		mid := progress(run)
		if mid.StagesExecuted > 0 && !mid.Done {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Fatal("never observed a mid-run progress state")
	}

	final := progress(run)
	if !final.Done {
		t.Fatal("final progress not done")
	}
	if final.StagesTotal != len(plan.Stages) {
		t.Fatalf("stagesTotal = %d, want %d", final.StagesTotal, len(plan.Stages))
	}
	scored := 0
	for _, bp := range final.Branches {
		if bp.Completion != 1 {
			t.Fatalf("terminal branch not complete: %+v", bp)
		}
		switch bp.State {
		case engine.BranchScored:
			scored++
		case engine.BranchPruned:
		default:
			t.Fatalf("terminal branch in state %q: %+v", bp.State, bp)
		}
	}
	if scored == 0 {
		t.Fatal("no branch ended scored")
	}
}

// TestSeriesArtifactDeterministic pins the acceptance criterion: two
// same-seed runs produce byte-identical mdf.series/v1 artifacts, and the
// artifact carries the branch-level series the progress surface streams.
func TestSeriesArtifactDeterministic(t *testing.T) {
	var docs [2]bytes.Buffer
	for i := range docs {
		rec, _ := recordedRun(t, engine.Options{
			Cluster:     testCluster(1 << 30),
			Policy:      memorymgr.AMM,
			Scheduler:   scheduler.BAS(nil),
			Incremental: true,
		})
		if err := rec.Series(obs.DefaultBucketSec).WriteJSON(&docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(docs[0].Bytes(), docs[1].Bytes()) {
		t.Fatalf("series artifact not byte-identical across same-seed runs:\n%s\nvs\n%s",
			docs[0].String(), docs[1].String())
	}

	rec, _ := recordedRun(t, engine.Options{
		Cluster:     testCluster(1 << 30),
		Policy:      memorymgr.AMM,
		Scheduler:   scheduler.BAS(nil),
		Incremental: true,
	})
	doc := rec.Series(obs.DefaultBucketSec)
	want := map[string]bool{
		"engine.branch_score.s0.b2":    false, // highest hint wins under Max
		"engine.branch_progress.s0.b0": false,
		"engine.branch_active.s0.b0":   false, // the branch intervals cover
		"engine.branch_active.s0.b1":   false, // all three branches
		"engine.branch_active.s0.b2":   false,
		"sched.rank_churn":             false,
		"sched.queue_depth":            false,
		"util.cpu":                     false,
		"lat.stage":                    false,
	}
	for _, s := range doc.Series {
		if _, ok := want[s.Name]; ok {
			want[s.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("series %q missing from artifact", name)
		}
	}

}

// TestCanceledRunReportsBegunLifetimes cancels a recorded run through
// Options.Context after every number of steps short of its end: the series
// document then holds one lifetime (a start count of 1 and one duration) for
// exactly the branches that had begun, reported where the run fails as a
// finished run reports them where it finishes.
func TestCanceledRunReportsBegunLifetimes(t *testing.T) {
	plan, err := graph.BuildPlan(buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator()))
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	partial := false
	for steps := 0; ; steps++ {
		ctx, cancel := context.WithCancel(context.Background())
		rec := obs.NewRecorder()
		run, err := engine.NewRun(plan, engine.Options{
			Cluster:     testCluster(1 << 30),
			Policy:      memorymgr.AMM,
			Scheduler:   scheduler.BAS(nil),
			Incremental: true,
			Probe:       rec,
			Context:     ctx,
		}, 0)
		if err != nil {
			t.Fatalf("NewRun: %v", err)
		}
		finished := false
		for i := 0; i < steps && !finished; i++ {
			finished = !run.Step()
		}
		cancel()
		if finished {
			if steps < 2 {
				t.Fatalf("run finished within %d steps", steps)
			}
			break
		}
		if run.Step() || run.Err() == nil {
			t.Fatalf("after %d steps: the canceled run did not fail", steps)
		}

		want := map[string]bool{}
		branches := progress(run).Branches
		for _, bp := range branches {
			if bp.State != engine.BranchPending {
				want[fmt.Sprintf("engine.branch_active.s%d.b%d", bp.Scope, bp.Branch)] = true
			}
		}
		partial = partial || (len(want) > 0 && len(want) < len(branches))
		starts, durations := map[string]float64{}, map[string]int64{}
		for _, s := range rec.Series(obs.DefaultBucketSec).Series {
			name, _ := strings.CutSuffix(s.Name, ".duration")
			if !strings.HasPrefix(name, "engine.branch_active.") {
				continue
			}
			if !want[name] {
				t.Errorf("after %d steps: series %s of a branch that had not begun", steps, s.Name)
			}
			for _, p := range s.Points {
				starts[name] += p.Value
			}
			for _, h := range s.Hist {
				durations[name] += h.Count
			}
		}
		for name := range want {
			if starts[name] != 1 || durations[name] != 1 {
				t.Errorf("after %d steps: %s starts %v times with %d durations, want 1 and 1",
					steps, name, starts[name], durations[name])
			}
		}
	}
	if !partial {
		t.Error("no cancellation left some branches begun and others not")
	}
}
