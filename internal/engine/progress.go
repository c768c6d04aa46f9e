package engine

import (
	"slices"
	"strconv"

	"metadataflow/internal/graph"
	"metadataflow/internal/obs"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/sim"
)

// This file is the live-introspection surface of a run: per-branch settle
// counters kept as stages execute or are pruned, Progress and ProgressInto,
// which read them into the service's GET /jobs/{id}/progress document, and
// the observe* helpers, which stream the same information into the probe's
// time-series layer as the run executes —
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

// branchRun is the run's bookkeeping for one exploration branch: the settle
// counters that Progress and the branch_progress series read.
type branchRun struct {
	scope, branch int32
	// choose is the ID of the stage closing the branch's scope, chooseLabel
	// its display label.
	choose      int32
	chooseLabel string
	// stages is the size of the branch; done and pruned count its executed
	// and skipped stages, kept by countSettled as stages settle.
	stages, done, pruned int32
	// tele is the branch's telemetry state; nil on an unprobed run.
	tele *branchTelemetry
}

// branchTelemetry is what a probed run keeps per branch: the names of its
// four series ("<series>.s<scope>.b<branch>"), built once per run, and its
// lifetime interval once ivOpen.
type branchTelemetry struct {
	latency, progress, score, active string
	iv                               obs.SpanID
	ivOpen                           bool
}

// indexBranches lays the plan's branches out flat, in (scope, branch) order,
// and records for every stage the branches that contain it: its innermost
// one and every enclosing one.
func (r *Run) indexBranches() {
	p := r.plan
	n := 0
	r.branchBase = make([]int, len(p.Scopes))
	for si, sc := range p.Scopes {
		r.branchBase[si] = n
		n += len(sc.Branches)
	}
	if n == 0 {
		return
	}
	r.branches = make([]branchRun, n)
	var tele []branchTelemetry
	if r.probe != nil {
		tele = make([]branchTelemetry, n)
	}
	off := make([]int32, len(p.Stages)+1)
	for si, sc := range p.Scopes {
		chooseSt := p.StageOf(sc.Choose)
		for b := range sc.Branches {
			stages := p.BranchStages(sc, b)
			bi := r.branchBase[si] + b
			r.branches[bi] = branchRun{
				scope: int32(si), branch: int32(b),
				choose: int32(chooseSt.ID), chooseLabel: chooseSt.String(),
				stages: int32(len(stages)),
			}
			if tele != nil {
				suffix := ".s" + strconv.Itoa(si) + ".b" + strconv.Itoa(b)
				tele[bi] = branchTelemetry{
					latency:  "engine.stage_latency" + suffix,
					progress: "engine.branch_progress" + suffix,
					score:    "engine.branch_score" + suffix,
					active:   "engine.branch_active" + suffix,
				}
				r.branches[bi].tele = &tele[bi]
			}
			for _, st := range stages {
				off[st.ID+1]++
			}
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	r.memberOff = off
	r.memberOf = make([]int32, off[len(off)-1])
	next := slices.Clone(off[:len(off)-1])
	for bi := range r.branches {
		br := &r.branches[bi]
		for _, st := range p.BranchStages(p.Scopes[br.scope], int(br.branch)) {
			r.memberOf[next[st.ID]] = int32(bi)
			next[st.ID]++
		}
	}
}

// countSettled books a stage that has just been executed or skipped on every
// branch containing it.
func (r *Run) countSettled(st *graph.Stage, executed bool) {
	if r.memberOf == nil {
		return
	}
	for _, bi := range r.memberOf[r.memberOff[st.ID]:r.memberOff[st.ID+1]] {
		if executed {
			r.branches[bi].done++
		} else {
			r.branches[bi].pruned++
		}
	}
}

// branchOf returns the bookkeeping of the stage's innermost branch, or nil
// for a stage outside every scope.
func (r *Run) branchOf(st *graph.Stage) *branchRun {
	ref := r.plan.Branch(st)
	if ref == nil {
		return nil
	}
	return &r.branches[r.branchBase[ref.Scope]+ref.Branch]
}

// Progress returns the run's live exploration state as a fresh document. It
// must only be called from the goroutine that owns the run (the step loop);
// it reads the same state Step mutates.
func (r *Run) Progress() Progress {
	var p Progress
	r.ProgressInto(&p)
	return p
}

// ProgressInto overwrites p with the run's live exploration state, reusing
// p.Branches: a caller that polls after every step keeps one buffer and pays
// O(branches) and no allocation per call. Like Progress it belongs to the
// goroutine that owns the run.
func (r *Run) ProgressInto(p *Progress) {
	p.NowSec = r.now
	p.Done = r.done
	p.StagesExecuted = r.metrics.StagesExecuted
	p.StagesPruned = r.metrics.StagesPruned
	p.StagesTotal = len(r.plan.Stages)
	if cap(p.Branches) < len(r.branches) {
		p.Branches = make([]BranchProgress, len(r.branches))
	}
	p.Branches = p.Branches[:len(r.branches)]
	// Every field is stored where it lies: the loop runs after every step of
	// every job the service steps, and assembling a BranchProgress to copy it
	// in costs more than all the stores.
	for i := range r.branches {
		br, bp := &r.branches[i], &p.Branches[i]
		bp.Scope, bp.Branch, bp.Choose = int(br.scope), int(br.branch), br.chooseLabel
		bp.Stages, bp.Done, bp.Pruned = int(br.stages), int(br.done), int(br.pruned)
		bp.Completion = 0
		if br.stages > 0 {
			bp.Completion = float64(br.done+br.pruned) / float64(br.stages)
		}
		bp.State, bp.Score = r.branchState(br)
	}
}

// branchState classifies a branch and returns its score once it is scored.
func (r *Run) branchState(br *branchRun) (state string, score float64) {
	if cs := r.sessions[br.choose]; cs != nil {
		if cs.quarantined[br.branch] {
			return BranchQuarantined, 0
		}
		if cs.offered[br.branch] {
			return BranchScored, cs.scores[br.branch]
		}
	}
	switch {
	case br.stages > 0 && br.pruned == br.stages:
		return BranchPruned, 0
	case br.done > 0 || br.pruned > 0:
		return BranchRunning, 0
	default:
		return BranchPending, 0
	}
}

// observeStageDone streams per-branch progress after a stage settles
// (executed or pruned): the stage's latency lands in the branch's
// log-bucketed latency histogram and the branch's completion fraction is
// re-sampled. Called from markExecuted and skipStage, after countSettled, so
// pruning decisions move the completion series too.
func (r *Run) observeStageDone(st *graph.Stage, ready, end sim.VTime, executed bool) {
	if r.probe == nil {
		return
	}
	br := r.branchOf(st)
	if br == nil {
		return
	}
	if executed {
		r.probe.SeriesObserve(obs.NodeMaster, br.tele.latency, end, (end - ready).Seconds())
	}
	r.beginBranchInterval(br, ready)
	if br.stages > 0 {
		settled := br.done + br.pruned
		r.probe.SeriesSet(obs.NodeMaster, br.tele.progress, end, float64(settled)/float64(br.stages))
		if settled == br.stages {
			r.endBranchInterval(br, end)
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
	br := r.branchOf(r.plan.Pre(chooseSt)[branch])
	if br == nil {
		return
	}
	r.probe.SeriesSet(obs.NodeMaster, br.tele.score, t, score)
	r.endBranchInterval(br, t)
}

// beginBranchInterval opens the branch's lifetime interval on its first
// settled stage; repeated calls are no-ops.
func (r *Run) beginBranchInterval(br *branchRun, t sim.VTime) {
	if r.probe == nil || br.tele.ivOpen {
		return
	}
	br.tele.iv = r.probe.IntervalBegin(obs.NodeMaster, br.tele.active, t)
	br.tele.ivOpen = true
}

// endBranchInterval closes the branch's lifetime interval. Closing is
// idempotent — later closers (a score after the last stage, a quarantine
// after a prune) extend the recorded end instead of re-opening.
func (r *Run) endBranchInterval(br *branchRun, t sim.VTime) {
	if r.probe == nil || !br.tele.ivOpen {
		return
	}
	r.probe.IntervalEnd(br.tele.iv, t)
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
