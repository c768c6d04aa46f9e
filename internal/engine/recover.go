package engine

import (
	"errors"
	"fmt"

	"metadataflow/internal/dataset"
	"metadataflow/internal/faults"
	"metadataflow/internal/graph"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/obs"
	"metadataflow/internal/sim"
)

// QuarantineRecord documents a branch discarded because one of its operator
// functions kept panicking past the retry budget.
type QuarantineRecord struct {
	// Choose is the display label of the choose stage owning the branch.
	Choose string
	// Branch is the branch index within the choose's scope.
	Branch int
	// Reason is the final failure message.
	Reason string
}

// opPanicError marks a recovered operator panic. Unlike a plain operator
// error (which fails the run immediately, as before), a panic is retried
// under the run's retry policy and, if persistent on a branch, quarantines
// the branch instead of crashing the run.
type opPanicError struct {
	op  string
	val any
}

func (e *opPanicError) Error() string { return fmt.Sprintf("operator %q panicked: %v", e.op, e.val) }

// IsPanic reports whether a run error originated in an operator panic that
// persisted past the retry budget. The service layer treats such failures as
// transient (the job is retried with backoff, and repeated offenders trip
// the tenant's quarantine) while every other run error is permanent.
func IsPanic(err error) bool {
	var pe *opPanicError
	return errors.As(err, &pe)
}

// callTransform produces the output of operator i of the stage's chain. The
// fault injector is consulted first, as before every invocation, so an
// injected panic fires at the call it always fired at whether or not the
// output exists already; then the output is taken from res, which is first
// filled from operator i on if it does not hold it (nobody computed the
// stage ahead, or this is the retry of an operator that failed).
func (r *Run) callTransform(st *graph.Stage, i int, ins []*dataset.Dataset, res *chainResult) (*dataset.Dataset, error) {
	op := st.Ops[i]
	if r.injector != nil && r.injector.TakePanic(op.Name, faults.TargetTransform) {
		r.metrics.PanicsInjected++
		return nil, &opPanicError{op: op.Name, val: "injected transform fault"}
	}
	if !res.holds(i) {
		computeChain(st, ins, res)
	}
	return res.take(i)
}

// callScore invokes a choose evaluator under recover().
func (r *Run) callScore(op *graph.Operator, d *dataset.Dataset) (score float64, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &opPanicError{op: op.Name, val: v}
		}
	}()
	if r.injector != nil && r.injector.TakePanic(op.Name, faults.TargetEval) {
		r.metrics.PanicsInjected++
		panic("injected evaluator fault")
	}
	return op.Chooser.Score(d), nil
}

// runTransform executes operator i of the stage's chain with bounded retry
// and exponential virtual-time backoff. penalty is the backoff time accrued
// by failed attempts, to be charged to the stage regardless of the outcome. A
// non-panic error propagates immediately; a panic persisting past the retry
// budget is returned as *opPanicError.
func (r *Run) runTransform(st *graph.Stage, i int, ins []*dataset.Dataset, res *chainResult) (out *dataset.Dataset, penalty sim.VTime, err error) {
	op := st.Ops[i]
	for attempt := 1; ; attempt++ {
		out, err = r.callTransform(st, i, ins, res)
		if err == nil {
			return out, penalty, nil
		}
		var pe *opPanicError
		if !errors.As(err, &pe) || attempt >= r.retry.MaxAttempts {
			return nil, penalty, err
		}
		r.metrics.Retries++
		penalty += sim.VTime(r.retry.Backoff(attempt))
		if r.probe != nil {
			r.probe.Decision(obs.Decision{
				T: r.now, Node: obs.NodeMaster, Component: "faults", Kind: "retry",
				Subject: op.Name,
				Detail:  fmt.Sprintf("transform attempt %d of %d, backoff %gs", attempt, r.retry.MaxAttempts, r.retry.Backoff(attempt)),
			})
		}
	}
}

// runScore executes a choose evaluator with the same retry/backoff regime as
// runTransform. Evaluators have no error path, so any returned error is a
// persistent panic.
func (r *Run) runScore(op *graph.Operator, d *dataset.Dataset) (score float64, penalty sim.VTime, err error) {
	for attempt := 1; ; attempt++ {
		score, err = r.callScore(op, d)
		if err == nil {
			return score, penalty, nil
		}
		if attempt >= r.retry.MaxAttempts {
			return 0, penalty, err
		}
		r.metrics.Retries++
		penalty += sim.VTime(r.retry.Backoff(attempt))
		if r.probe != nil {
			r.probe.Decision(obs.Decision{
				T: r.now, Node: obs.NodeMaster, Component: "faults", Kind: "retry",
				Subject: op.Name,
				Detail:  fmt.Sprintf("evaluator attempt %d of %d, backoff %gs", attempt, r.retry.MaxAttempts, r.retry.Backoff(attempt)),
			})
		}
	}
}

// homeOf maps a partition index to its current home node: index mod workers
// while that node lives, otherwise the deterministic stand-in among the
// survivors.
func (r *Run) homeOf(i int) int {
	return r.opts.Cluster.NodeFor(i).ID
}

// nodeOf resolves the node holding a partition, honouring rebalancing
// overrides recorded by failure recovery.
func (r *Run) nodeOf(key dataset.PartKey, i int) int {
	if n, ok := r.placement[key]; ok {
		return n
	}
	return i % len(r.allocs)
}

// placeNew picks the node for a freshly produced partition and records an
// override when failures have moved it off its default home.
func (r *Run) placeNew(key dataset.PartKey, i int) int {
	n := r.homeOf(i)
	if n != i%len(r.allocs) {
		r.placement[key] = n
	}
	return n
}

// liveAllocs returns the indices of allocators on live nodes, in the
// scratch's list.
func (r *Run) liveAllocs(sc *stageScratch) []int {
	sc.live = sc.live[:0]
	for i, n := range r.opts.Cluster.Nodes {
		if n.Alive() {
			sc.live = append(sc.live, i)
		}
	}
	return sc.live
}

// onCrash recovers from one injected node failure at the current virtual
// time. A non-permanent crash models a process restart: the node loses its
// memory-resident partitions; those with durable on-disk copies are simply
// re-read on next access, the rest are re-derived by lineage on the
// restarted node. A permanent crash removes the node from the live set: its
// checkpointed partitions are rebalanced onto survivors (adopting the
// distributed-filesystem copy, charged as a network transfer) and the lost
// ones re-derived on their new home nodes.
func (r *Run) onCrash(c faults.Crash) error {
	r.metrics.NodeCrashes++
	detail := "transient (process restart)"
	if c.Permanent {
		detail = "permanent (machine loss)"
	}
	if r.probe != nil {
		r.probe.Decision(obs.Decision{
			T: r.now, Node: c.Node, Component: "faults", Kind: "crash",
			Subject: fmt.Sprintf("node %d", c.Node), Detail: detail,
		})
	}
	alloc := r.allocs[c.Node]
	if !c.Permanent {
		lost := alloc.Crash()
		// Before trusting the surviving durable copies, verify their
		// checkpoint-store entries; corrupt ones join the re-derivation.
		if demoted := r.distrustCorrupt(alloc); len(demoted) > 0 {
			lost = append(lost, demoted...)
			memorymgr.SortLost(lost)
		}
		r.rederive(lost)
		return nil
	}
	checkpointed, lost := alloc.Evacuate()
	if ok, corrupt := r.verifyEvacuated(checkpointed); len(corrupt) > 0 {
		checkpointed = ok
		lost = append(lost, corrupt...)
		memorymgr.SortLost(lost)
	}
	if err := r.opts.Cluster.Kill(c.Node); err != nil {
		return fmt.Errorf("engine: fault plan: %w", err)
	}
	start := r.now
	end := start
	cfg := r.opts.Cluster.Config
	for _, l := range checkpointed {
		n := r.homeOf(l.Key.Index)
		r.placement[l.Key] = n
		r.allocs[n].AdoptSpilled(l.Key, l.Bytes)
		t := r.opts.Cluster.Nodes[n].Net(start, cfg.NetSec(l.Bytes))
		if t > end {
			end = t
		}
		r.metrics.PartitionsRebalanced++
	}
	if len(checkpointed) > 0 && r.probe != nil {
		r.probe.Decision(obs.Decision{
			T: start, Node: c.Node, Component: "faults", Kind: "rebalance",
			Subject: fmt.Sprintf("node %d", c.Node),
			Detail:  fmt.Sprintf("%d checkpointed partitions adopted by survivors", len(checkpointed)),
		})
		r.span(obs.NodeMaster, obs.KindRecovery, fmt.Sprintf("rebalance node %d", c.Node), start, end)
	}
	if end > r.now {
		r.metrics.RecoverySec += end - r.now
		r.now = end
	}
	r.rederive(lost)
	return nil
}

// rederive restores lost partitions by re-executing their producing stages:
// each distinct producer is charged its recorded virtual duration once per
// receiving node (the re-execution runs on the node that will hold the
// partition), then the partition is stored again. Recovery advances the
// run's virtual clock.
func (r *Run) rederive(lost []memorymgr.Lost) {
	if len(lost) == 0 {
		return
	}
	start := r.now
	end := start
	type producerNode struct{ stage, node int }
	reExecEnd := make(map[producerNode]sim.VTime)
	reExecuted := make(map[int]bool)
	for _, l := range lost {
		node := r.homeOf(l.Key.Index)
		t := start
		if prod, ok := r.producerOf[l.Key.Dataset]; ok {
			pn := producerNode{prod, node}
			if e, charged := reExecEnd[pn]; charged {
				t = e
			} else {
				t = r.opts.Cluster.Nodes[node].CPU(start, r.stageDur[prod])
				reExecEnd[pn] = t
				if !reExecuted[prod] {
					reExecuted[prod] = true
					r.metrics.StagesReExecuted++
				}
			}
		}
		t = r.allocs[node].Put(l.Key, l.Bytes, t)
		r.placement[l.Key] = node
		r.metrics.PartitionsRederived++
		r.metrics.RederivedBytes += l.Bytes
		if t > end {
			end = t
		}
	}
	if r.probe != nil {
		d := obs.Decision{
			T: start, Node: obs.NodeMaster, Component: "faults", Kind: "rederive",
			Subject: fmt.Sprintf("%d lost partitions", len(lost)),
			Detail:  fmt.Sprintf("%d producing stages re-executed", len(reExecuted)),
		}
		for _, l := range lost {
			d.Candidates = append(d.Candidates, obs.Candidate{
				Label: r.probe.Label(int64(l.Key.Dataset), l.Key.Index),
				Score: float64(l.Bytes), Chosen: true,
			})
		}
		r.probe.Decision(d)
		r.span(obs.NodeMaster, obs.KindRecovery, "rederive", start, end)
	}
	if end > r.now {
		r.metrics.RecoverySec += end - r.now
		r.now = end
	}
}

// quarantine discards a branch whose operator kept failing: its unexecuted
// stages are skipped, its result dataset released, and the decision recorded
// so the run degrades gracefully instead of crashing.
func (r *Run) quarantine(chooseSt *graph.Stage, branch int, reason string) {
	cs := r.chooseStateFor(chooseSt)
	if cs.quarantined[branch] {
		return
	}
	cs.quarantined[branch] = true
	cs.nQuarantined++
	r.metrics.BranchesQuarantined++
	r.quarantined = append(r.quarantined, QuarantineRecord{
		Choose: chooseSt.String(), Branch: branch, Reason: reason,
	})
	if r.probe != nil {
		r.probe.Decision(obs.Decision{
			T: r.now, Node: obs.NodeMaster, Component: "faults", Kind: "quarantine",
			Subject: branchLabel(chooseSt, branch), Detail: reason,
		})
	}
	if scope := r.plan.ScopeOfChoose(chooseSt); scope != nil {
		for _, st := range r.plan.BranchStages(scope, branch) {
			r.skipStage(st, r.now)
		}
	}
	if pres := r.plan.Pre(chooseSt); branch < len(pres) {
		// A branch quarantined after all its stages ran never gets a score,
		// so close its lifetime interval here.
		if br := r.branchOf(pres[branch]); br != nil {
			r.endBranchInterval(br, r.now)
		}
	}
	r.discardBranchDataset(chooseSt, cs, branch, false)
	r.refreshReady()
}

// branchOfStage locates the choose stage and branch index owning st, if st
// lies inside an exploration scope.
func (r *Run) branchOfStage(st *graph.Stage) (*graph.Stage, int, bool) {
	ref := r.plan.Branch(st)
	if ref == nil {
		return nil, 0, false
	}
	scope := r.plan.Scopes[ref.Scope]
	chooseSt := r.plan.StageOf(scope.Choose)
	if chooseSt == nil {
		return nil, 0, false
	}
	return chooseSt, ref.Branch, true
}
