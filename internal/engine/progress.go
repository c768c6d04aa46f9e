package engine

import (
	"fmt"

	"metadataflow/internal/graph"
	"metadataflow/internal/obs"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/sim"
)

// This file is the live-introspection surface of a run: Progress computes
// the per-branch completion state on demand (the service's
// GET /jobs/{id}/progress document), and the observe* helpers stream the
// same information into the probe's time-series layer as the run executes —
// per-branch stage latency and completion fraction, partial evaluator
// scores the moment a branch is scored, scheduler rank churn, and a
// lifetime interval per branch. Everything is emitted at scheduling
// boundaries in the engine's deterministic order, so the resulting
// mdf.series/v1 document is byte-identical across same-seed runs.

// Branch states reported by Progress.
const (
	BranchPending     = "pending"
	BranchRunning     = "running"
	BranchScored      = "scored"
	BranchPruned      = "pruned"
	BranchQuarantined = "quarantined"
)

// BranchProgress is the live state of one exploration branch.
type BranchProgress struct {
	// Scope indexes the plan's scopes; Branch the branch within it.
	Scope  int `json:"scope"`
	Branch int `json:"branch"`
	// Choose labels the scope's closing choose stage.
	Choose string `json:"choose"`
	// Stages counts the branch's stages; Done the executed ones, Pruned
	// the skipped ones.
	Stages int `json:"stages"`
	Done   int `json:"done"`
	Pruned int `json:"pruned"`
	// Completion is (Done+Pruned)/Stages: the fraction of the branch that
	// no longer needs work.
	Completion float64 `json:"completion"`
	// State is pending, running, scored, pruned or quarantined.
	State string `json:"state"`
	// Score is the evaluator score once State is scored.
	Score float64 `json:"score,omitempty"`
}

// Progress is a point-in-time view of a run's exploration state. It is
// computed from the run's bookkeeping on demand, in plan order, so the same
// execution prefix always yields the same document.
type Progress struct {
	// NowSec is the run's current virtual time.
	NowSec sim.VTime `json:"nowSec"`
	// Done reports whether the run has finished.
	Done bool `json:"done"`
	// StagesExecuted / StagesPruned / StagesTotal summarise the whole plan.
	StagesExecuted int `json:"stagesExecuted"`
	StagesPruned   int `json:"stagesPruned"`
	StagesTotal    int `json:"stagesTotal"`
	// Branches lists every exploration branch in (scope, branch) order.
	Branches []BranchProgress `json:"branches,omitempty"`
}

// Progress returns the run's live exploration state. It must only be called
// from the goroutine that owns the run (the step loop); it reads the same
// state Step mutates.
func (r *Run) Progress() Progress {
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
			bp := BranchProgress{
				Scope:  si,
				Branch: b,
				Choose: chooseSt.String(),
			}
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
			bp.State = r.branchState(chooseSt, b, bp)
			if bp.State == BranchScored {
				bp.Score = r.sessions[chooseSt.ID].scores[b]
			}
			p.Branches = append(p.Branches, bp)
		}
	}
	return p
}

func (r *Run) branchState(chooseSt *graph.Stage, b int, bp BranchProgress) string {
	if cs := r.sessions[chooseSt.ID]; cs != nil {
		if cs.quarantined[b] {
			return BranchQuarantined
		}
		if cs.offered[b] {
			return BranchScored
		}
	}
	switch {
	case bp.Stages > 0 && bp.Pruned == bp.Stages:
		return BranchPruned
	case bp.Done > 0 || bp.Pruned > 0:
		return BranchRunning
	default:
		return BranchPending
	}
}

// branchSeries renders the stable series-name suffix of a branch.
func branchSeries(ref graph.BranchRef) string {
	return fmt.Sprintf("s%d.b%d", ref.Scope, ref.Branch)
}

// observeStageDone streams per-branch progress after a stage settles
// (executed or pruned): the stage's latency lands in the branch's
// log-bucketed latency histogram and the branch's completion fraction is
// re-sampled. Called from markExecuted and skipStage, so pruning decisions
// move the completion series too.
func (r *Run) observeStageDone(st *graph.Stage, ready, end sim.VTime, executed bool) {
	if r.probe == nil {
		return
	}
	ref := r.plan.Branch(st)
	if ref == nil {
		return
	}
	suffix := branchSeries(*ref)
	if executed {
		r.probe.SeriesObserve(obs.NodeMaster, "engine.stage_latency."+suffix, end, (end - ready).Seconds())
	}
	r.beginBranchInterval(*ref, ready)
	done, total := 0, 0
	sc := r.plan.Scopes[ref.Scope]
	for _, bst := range r.plan.BranchStages(sc, ref.Branch) {
		total++
		if r.executed[bst.ID] || r.skipped[bst.ID] {
			done++
		}
	}
	if total > 0 {
		r.probe.SeriesSet(obs.NodeMaster, "engine.branch_progress."+suffix, end, float64(done)/float64(total))
		if done == total {
			r.endBranchInterval(*ref, end)
		}
	}
}

// observeScore streams a branch's evaluator score the moment the branch is
// scored (§3.1 incremental evaluation): the data feed mid-flight pruning
// and online cost calibration build on.
func (r *Run) observeScore(chooseSt *graph.Stage, branch int, t sim.VTime, score float64) {
	if r.probe == nil {
		return
	}
	pre := r.plan.Pre(chooseSt)[branch]
	ref := r.plan.Branch(pre)
	if ref == nil {
		return
	}
	r.probe.SeriesSet(obs.NodeMaster, "engine.branch_score."+branchSeries(*ref), t, score)
	r.endBranchInterval(*ref, t)
}

// beginBranchInterval opens the branch's lifetime interval on its first
// settled stage; repeated calls are no-ops.
func (r *Run) beginBranchInterval(ref graph.BranchRef, t sim.VTime) {
	if r.probe == nil {
		return
	}
	if _, open := r.branchIv[ref]; open {
		return
	}
	r.branchIv[ref] = r.probe.IntervalBegin(obs.NodeMaster, "engine.branch_active."+branchSeries(ref), t)
}

// endBranchInterval closes the branch's lifetime interval. Closing is
// idempotent — later closers (a score after the last stage, a quarantine
// after a prune) extend the recorded end instead of re-opening.
func (r *Run) endBranchInterval(ref graph.BranchRef, t sim.VTime) {
	if r.probe == nil {
		return
	}
	id, open := r.branchIv[ref]
	if !open {
		return
	}
	r.probe.IntervalEnd(id, t)
}

// observeRank streams the scheduler's candidate-rank churn: how many stages
// moved position between consecutive pick rankings (BAS changing its mind
// as hint regressions update). Only called with a live probe (observePick
// is installed via SetPickObserver under the probe nil-check).
func (r *Run) observeRank(rec scheduler.PickRecord) {
	churn := scheduler.RankChurn(r.lastRank, rec.Candidates)
	r.probe.SeriesAdd(obs.NodeMaster, "sched.rank_churn", r.now, float64(churn))
	r.lastRank = append(r.lastRank[:0], rec.Candidates...)
}
