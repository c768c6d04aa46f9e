package engine

import (
	"fmt"
	"strconv"

	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
	"metadataflow/internal/obs"
	"metadataflow/internal/sim"
)

// chooseStateFor lazily creates the incremental selection session for a
// choose stage. Scores are retained at the master, which is also the
// checkpoint the fault-tolerance mechanism recovers from (§5).
func (r *Run) chooseStateFor(st *graph.Stage) *chooseState {
	if cs := r.sessions[st.ID]; cs != nil {
		return cs
	}
	chooser := st.Ops[0].Chooser
	total := len(r.plan.Pre(st))
	session := chooser.NewSession(total)
	if oa, ok := session.(orderAware); ok {
		oa.SetSortedOrder(r.opts.Scheduler.SortedBranches())
	}
	cs := &chooseState{
		session:     session,
		offered:     make([]bool, total),
		scores:      make([]float64, total),
		released:    make([]bool, total),
		quarantined: make([]bool, total),
	}
	r.sessions[st.ID] = cs
	return cs
}

// branchLabel names branch b of the choose stage chooseSt in telemetry: its
// evaluator span and its candidacy in the choose decision both name it, so
// the label is built once, for an auditor only.
func (cs *chooseState) branchLabel(chooseSt *graph.Stage, b int) string {
	if cs.labels == nil {
		cs.labels = make([]string, len(cs.offered))
	}
	if cs.labels[b] == "" {
		cs.labels[b] = chooseSt.String() + "[b" + strconv.Itoa(b) + "]"
	}
	return cs.labels[b]
}

// evalBranchOf scores the branch that just completed with branchFinal, as
// soon as it completes (incremental choose evaluation, §3.1). Branch i of
// the scope is the choose's i-th input (Def. 3.3).
func (r *Run) evalBranchOf(chooseSt, branchFinal *graph.Stage) error {
	return r.evalBranch(chooseSt, r.plan.ChooseInput(branchFinal), r.stageEnd[branchFinal.ID])
}

// evalBranch runs the evaluator function of the choose on workers for one
// branch result (Alg. 1, line 7), offers the score to the master-side
// selection session (line 8), discards the datasets of rejected branches,
// and prunes superfluous branches when the session completes early.
func (r *Run) evalBranch(chooseSt *graph.Stage, branch int, ready sim.VTime) error {
	cs := r.chooseStateFor(chooseSt)
	if cs.offered[branch] || cs.quarantined[branch] || cs.done {
		return nil
	}
	pre := r.plan.Pre(chooseSt)[branch]
	d := r.stageOut[pre.ID]
	if d == nil {
		return fmt.Errorf("engine: choose %s branch %d has no dataset", chooseSt, branch)
	}
	op := chooseSt.Ops[0]

	// Workers read the branch result and compute the evaluator score.
	sc := &r.eval
	in := sc.only(d)
	nodeT, err := r.loadInputs(sc, in, ready)
	if err != nil {
		return fmt.Errorf("engine: choose %s branch %d: %w", chooseSt, branch, err)
	}
	scan := sim.VTime(op.CostPerMB * sim.Bytes(d.VirtualBytes()).MB())
	r.chargeCompute(sc, in, sim.VTime(op.FixedCost), scan, nodeT)
	end := ready
	for _, t := range nodeT {
		if t > end {
			end = t
		}
	}
	var score float64
	penalty, serr := r.retried(op, "evaluator", func() (err error) {
		score, err = r.callScore(op, d)
		return err
	})
	end += penalty // backoff between evaluator retries
	if end > cs.evalEnd {
		cs.evalEnd = end
	}
	if end > r.now {
		r.now = end
	}

	if r.audit != nil {
		r.spanNodes(obs.KindEval, cs.branchLabel(chooseSt, branch), ready, nodeT)
	}
	if serr != nil {
		// The evaluator kept panicking: the branch result cannot be
		// scored, so the branch is quarantined and the choose proceeds
		// over the remaining branches.
		r.quarantine(chooseSt, branch, serr.Error())
		return nil
	}
	r.metrics.ChooseEvals++
	cs.offered[branch] = true
	cs.nOffered++
	cs.scores[branch] = score
	r.observeScore(chooseSt, branch, end, score)

	// The selection function executes at the master (negligible cost).
	discards, done := cs.session.Offer(branch, score)
	// A discard counts as incremental (Tab. 1) only while branches remain
	// unscored; the final offer's discards coincide with the choose itself.
	incremental := cs.nOffered < len(r.plan.Pre(chooseSt))
	for _, db := range discards {
		r.discardBranchDataset(chooseSt, cs, db, incremental)
	}
	if done && !cs.done {
		cs.done = true
		r.pruneRemaining(chooseSt, cs)
	}
	return nil
}

// discardBranchDataset drops the result dataset of a rejected branch (R1a,
// R3: discarding as early as possible).
func (r *Run) discardBranchDataset(chooseSt *graph.Stage, cs *chooseState, branch int, incremental bool) {
	if cs.released[branch] {
		return
	}
	pre := r.plan.Pre(chooseSt)[branch]
	d := r.stageOut[pre.ID]
	if d == nil {
		return
	}
	cs.released[branch] = true
	if incremental {
		r.metrics.BranchesDiscarded++
	}
	r.unpinDataset(d)
	r.consumeInput(d)
}

// pruneRemaining skips every branch of the choose's scope that has not been
// scored: the selection is complete, so those branches are superfluous
// (R1b). The dataflow is rewritten dynamically, as the SEEP master does
// after a choose decision (§5).
func (r *Run) pruneRemaining(chooseSt *graph.Stage, cs *chooseState) {
	scope := r.plan.ScopeOfChoose(chooseSt)
	if scope == nil {
		return
	}
	for b := range r.plan.Pre(chooseSt) {
		if cs.offered[b] {
			continue
		}
		pruned := false
		for _, st := range r.plan.BranchStages(scope, b) {
			if !r.executed[st.ID] && !r.skipped[st.ID] {
				r.skipStage(st, r.now)
				pruned = true
			}
		}
		if pruned {
			r.metrics.BranchesPruned++
		}
	}
	r.refreshReady()
}

// skipStage marks a stage as pruned and releases the inputs it would have
// consumed.
func (r *Run) skipStage(st *graph.Stage, t sim.VTime) {
	if r.skipped[st.ID] || r.executed[st.ID] {
		return
	}
	r.skipped[st.ID] = true
	r.countSettled(st, false)
	r.stageEnd[st.ID] = t
	r.metrics.StagesPruned++
	r.stageSpan(obs.KindPruned, st, t, t)
	r.observeStageDone(st, t, t, false)
	r.ready.remove(st)
	r.dropAhead(st)
	r.settled(st)
	for _, pre := range r.plan.Pre(st) {
		if r.executed[pre.ID] {
			if d := r.stageOut[pre.ID]; d != nil {
				r.consumeInput(d)
			}
		}
	}
}

// execChoose executes a choose stage: it scores any branches not yet
// evaluated incrementally, finalises the selection, and produces the
// choose's output (the concatenation of the selected datasets, Def. 3.3).
func (r *Run) execChoose(st *graph.Stage) error {
	cs := r.chooseStateFor(st)
	ready := r.readyTime(st)
	pres := r.plan.Pre(st)

	if !cs.done {
		for b, pre := range pres {
			if cs.offered[b] || cs.quarantined[b] || r.skipped[pre.ID] {
				continue
			}
			if err := r.evalBranch(st, b, ready); err != nil {
				return err
			}
			if cs.done {
				break
			}
		}
	}

	end := cs.evalEnd
	if ready > end {
		end = ready
	}

	selected := cs.session.Selected()
	switch len(selected) {
	case 0:
		out := dataset.New(st.Ops[0].Name)
		r.finalizeChooseInputs(st, cs, -1)
		r.registerOutput(st, out)
	case 1:
		d := r.stageOut[pres[selected[0]].ID]
		if d == nil {
			return fmt.Errorf("engine: choose %s selected missing branch %d", st, selected[0])
		}
		r.finalizeChooseInputs(st, cs, selected[0])
		r.registerOutput(st, d)
		r.consumeInput(d)
	default:
		sc := &r.stage
		parts := sc.ins[:0]
		for _, b := range selected {
			if d := r.stageOut[pres[b].ID]; d != nil {
				parts = append(parts, d)
			}
		}
		sc.ins = parts
		// Concatenation materialises a new dataset: read the selected
		// originals (possibly from disk), copy their partitions into fresh
		// storage, then release the originals.
		nodeT, err := r.loadInputs(sc, parts, end)
		if err != nil {
			return fmt.Errorf("engine: choose %s: %w", st, err)
		}
		copied := dataset.Concat(st.Ops[0].Name, parts...)
		if r.audit != nil {
			r.audit.RegisterDataset(int64(copied.ID), copied.Name)
		}
		end = r.storeOutput(st, copied, nodeT)
		r.finalizeChooseInputs(st, cs, -1) // release all originals
		r.registerOutput(st, copied)
	}
	r.markExecuted(st, ready, end)
	r.stageSpan(obs.KindChoose, st, ready, end)
	if r.audit != nil {
		// Audit the selection with every scored branch (Alg. 1's candidate
		// scores); quarantined and pruned branches carry no score and are
		// absent.
		sel := make([]bool, len(pres))
		for _, b := range selected {
			sel[b] = true
		}
		d := obs.Decision{
			T: end, Node: obs.NodeMaster, Component: "engine", Kind: "choose",
			Subject: st.String(),
			Detail:  fmt.Sprintf("selected %d of %d branches", len(selected), len(pres)),
		}
		for b := range pres {
			if !cs.offered[b] {
				continue
			}
			d.Candidates = append(d.Candidates, obs.Candidate{
				Label: cs.branchLabel(st, b), Score: cs.scores[b], Chosen: sel[b],
			})
		}
		r.audit.Decision(d)
	}
	return nil
}

// finalizeChooseInputs consumes every offered branch dataset except that of
// branch keep (which is forwarded as the choose's output; -1 keeps none).
func (r *Run) finalizeChooseInputs(st *graph.Stage, cs *chooseState, keep int) {
	for b, pre := range r.plan.Pre(st) {
		if !cs.offered[b] || b == keep || cs.released[b] {
			continue
		}
		cs.released[b] = true
		if d := r.stageOut[pre.ID]; d != nil {
			r.unpinDataset(d)
			r.consumeInput(d)
		}
	}
}
