// Package engine executes dataflow graphs and MDFs on the simulated cluster,
// mirroring the SEEP implementation of §5: a master-side scheduler drives
// stage execution on workers, choose evaluator functions run on workers
// while selection functions run at the master, the dataflow is rewritten
// dynamically when choose decisions prune branches, and worker memory
// allocators spill datasets under the configured eviction policy.
//
// Completion times are virtual seconds from the cluster's discrete-event
// cost model; operator functions execute for real so that choose decisions
// are based on genuine result quality.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"slices"

	"metadataflow/internal/ckptstore"
	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/faults"
	"metadataflow/internal/graph"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/obs"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/sim"
	"metadataflow/internal/spec"
)

// Options configures a run.
type Options struct {
	// Cluster is the simulated cluster; required.
	Cluster *cluster.Cluster
	// MemPerWorker is the job's dataset-memory budget per worker;
	// 0 uses the cluster's configured budget. Parallel-job baselines pass
	// a 1/k share (§6.1).
	MemPerWorker sim.Bytes
	// Policy selects the eviction policy (LRU or AMM).
	Policy memorymgr.PolicyKind
	// Scheduler selects the stage-scheduling policy (BFS or BAS); nil
	// defaults to BAS with the default hint.
	Scheduler scheduler.Policy
	// Incremental enables incremental choose evaluation (§3.1): branch
	// results are scored as soon as the branch completes, datasets of
	// discarded branches are dropped immediately, and superfluous branches
	// are pruned before executing.
	Incremental bool
	// PinReused pins datasets consumed by more than one stage, modelling
	// Spark's explicit cache() designation of reused intermediates (§6.1).
	PinReused bool
	// Speculative enables straggler mitigation (§5: "can leverage existing
	// mechanisms"): the compute shares of a stage are rebalanced by node
	// speed, modelling speculative re-execution of a slow worker's tasks on
	// faster ones. I/O stays bound to data placement.
	Speculative bool
	// Faults is the deterministic fault plan injected into the run: node
	// crashes, transient slowdown windows, disk-bandwidth degradation and
	// operator panics. nil means a fault-free run, so "crash node 0 before
	// the first stage" ({node: 0}) is expressible without a sentinel.
	// Setting a plan implies Checkpoint.
	Faults *faults.Plan
	// Probe, when non-nil, receives the run's unified telemetry: per-node
	// counter samples and the series layer, and — when it is also an
	// obs.Auditor — per-node task spans and the decision audit log
	// (scheduler picks, choose selections, evictions, fault recovery). The
	// probe is threaded into the memory allocators, the scheduling policy
	// and the cluster's resource timelines; nil disables all of it with no
	// per-event cost, and no audit report is built for a probe that is not
	// an Auditor. Every report reaches it from the goroutine that steps.
	Probe obs.Probe
	// Checkpoint enables durable-copy awareness in the memory allocators
	// and, under AMM, anticipatory checkpointing of consumed intermediates:
	// background disk writes that overlap compute and cut the lineage
	// re-derivation cost of later failures. Implied by Faults.
	Checkpoint bool
	// Ckpts, when non-nil, mirrors every durable checkpoint into a
	// content-addressed store on disk (internal/ckptstore) and verifies
	// entries before trusting them during crash recovery: a missing or
	// corrupt entry demotes the durable copy and the partition is
	// re-derived by lineage. The simulation's checkpoint cost model is
	// unchanged; the store adds restart durability on top.
	Ckpts *ckptstore.Store
	// CkptChains maps operator IDs (graph creation order) to their spec
	// chain-prefix hashes, from spec.HashReport().OpChains. Required for
	// Ckpts to key entries; stages without a mapping are not mirrored.
	CkptChains []spec.Hash
	// Context, when non-nil, cancels the run between stages: the next Step
	// after the context is done fails the run with an error wrapping the
	// cancellation cause (context.Cause). Long-lived callers — the service
	// layer's per-job deadlines and drain, mdf run's SIGINT handling — use it
	// to abandon a run at a deterministic scheduling boundary; the partial
	// result and Snapshot stay readable afterwards.
	Context context.Context
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Scheduler == nil {
		out.Scheduler = scheduler.BAS(nil)
	}
	if out.MemPerWorker == 0 && out.Cluster != nil {
		out.MemPerWorker = out.Cluster.Config.MemPerWorker
	}
	if out.Faults != nil {
		out.Checkpoint = true
	}
	return out
}

// Metrics aggregates the statistics of one run.
type Metrics struct {
	// Mem holds the memory-manager statistics (hit ratio etc.).
	Mem memorymgr.Metrics
	// ComputeSec is the total virtual compute time charged.
	ComputeSec sim.VTime
	// StagesExecuted and StagesPruned count scheduling outcomes.
	StagesExecuted int
	StagesPruned   int
	// BranchesPruned counts branches skipped as superfluous (R1b).
	BranchesPruned int
	// BranchesDiscarded counts branches whose datasets were discarded
	// after evaluation (R1a/R3).
	BranchesDiscarded int
	// DatasetsDiscarded counts datasets dropped once fully consumed (R3).
	DatasetsDiscarded int
	// PeakLiveDatasets is the maximum |D^c_s| over the run (Thm. 4.3).
	PeakLiveDatasets int
	// ChooseEvals counts evaluator invocations.
	ChooseEvals int

	// FaultsInjected is the total number of fault events delivered (crashes
	// fired, degradation windows activated, panics injected).
	FaultsInjected int
	// NodeCrashes counts injected node failures; PanicsInjected the
	// injected operator panics.
	NodeCrashes    int
	PanicsInjected int
	// Retries counts operator invocations re-attempted after a panic.
	Retries int
	// StagesReExecuted counts lineage re-executions of producing stages;
	// PartitionsRederived the partitions they restored.
	StagesReExecuted    int
	PartitionsRederived int
	// PartitionsRebalanced counts checkpointed partitions moved from a
	// permanently dead node onto survivors.
	PartitionsRebalanced int
	// BranchesQuarantined counts branches discarded because an operator
	// kept panicking past the retry budget.
	BranchesQuarantined int
	// RecoverySec is the virtual time spent in failure recovery.
	RecoverySec sim.VTime
	// RederivedBytes is the data volume restored by lineage re-derivation.
	RederivedBytes sim.Bytes
}

// Result is the outcome of a run.
type Result struct {
	// Start and End are the virtual start and completion times; End-Start
	// is the job's completion time.
	Start, End sim.VTime
	// Output is the dataset produced by the sink stage.
	Output *dataset.Dataset
	// Metrics holds run statistics.
	Metrics Metrics
	// Quarantined records the branches discarded because of persistently
	// failing operators, with the reason.
	Quarantined []QuarantineRecord
}

// CompletionTime returns End - Start.
func (r *Result) CompletionTime() sim.VTime { return r.End - r.Start }

// Run is a resumable execution of one job; Step executes one stage at a
// time so that concurrent jobs can be interleaved by virtual time.
type Run struct {
	plan *graph.Plan
	opts Options

	allocs []*memorymgr.Allocator

	start sim.VTime
	now   sim.VTime
	last  *graph.Stage

	// Per-stage state, indexed by stage ID. A stage is settled once it is
	// executed or skipped; stageEnd, stageOut and stageDur are zero until
	// then, and stageOut is nil again once its dataset is discarded.
	executed []bool
	skipped  []bool
	stageEnd []sim.VTime
	stageOut []*dataset.Dataset

	// The ready set (Alg. 1's T_cand), kept by counting: unsettled[id] is
	// the number of predecessors of the stage that have not settled, and a
	// stage whose count reaches zero is released. Released stages wait, in
	// ascending ID, for the next refresh point (refreshReady), which moves
	// them onto ready: a list sorted by stage ID, cheap to change at either
	// end (readyList), whose stages() is the slice handed to the scheduling
	// policy.
	unsettled []int32
	released  []int
	ready     readyList

	// The live datasets (D^c_s), one row each (dataRow). rowOf finds a
	// dataset's row, once per dataset event; freeRows lists the slots of
	// discarded datasets, which the next ones take, handle lists and all.
	rows     []dataRow
	rowOf    map[dataset.ID]int32
	freeRows []int32

	sessions []*chooseState // by choose stage ID; nil until the choose is first touched

	// Fault-injection and recovery state.
	injector   *faults.Injector // nil on fault-free runs
	checkpoint bool             // durable-copy awareness enabled
	// stageDur records each executed stage's virtual duration, the cost
	// charged when the stage is re-executed to re-derive lost partitions.
	stageDur []sim.VTime
	// placement overrides the default partition-to-node mapping (index mod
	// workers) for partitions rebalanced or re-derived after failures. It is
	// empty on a fault-free run, and consulted only when it is not.
	placement map[dataset.PartKey]int

	// probe is the telemetry sink (Options.Probe); nil disables telemetry.
	// audit is the probe's audit half, nil unless the probe is an
	// obs.Auditor: spans, decisions and dataset registrations are built for
	// it alone. Both take every report as it is made, on the goroutine that
	// steps.
	probe obs.Probe
	audit obs.Auditor
	// lastRank retains the previous pick's candidate ranking for the
	// sched.rank_churn series; pickCands is the scratch list observePick
	// hands to the probe, pickDetail and pickDetailDF the details of a plain
	// and a depth-first pick decision. All are only touched when audit is
	// non-nil.
	lastRank     []*graph.Stage
	pickCands    []obs.Candidate
	pickDetail   string
	pickDetailDF string

	// Per-branch bookkeeping (progress.go): branches is flat in (scope,
	// branch) order, branchBase[si] is the index of scope si's first branch,
	// and memberOf[memberOff[id]:memberOff[id+1]] are the branches that
	// contain stage id.
	branches   []branchRun
	branchBase []int
	memberOff  []int32
	memberOf   []int32

	// Computing ahead (ahead.go). look is the policy's Lookahead, nil when it
	// has none, cannot tell, or the run started on a single processor: then
	// nothing below is touched and every stage is computed where it is
	// picked. ahead holds what other goroutines compute; inline is the result
	// of a stage nobody claimed, reused from stage to stage; adoptedAhead
	// counts the stages executed from a result computed ahead of their pick
	// (the tests ask whether the pool was reached at all).
	look         scheduler.Lookahead
	ahead        *aheadRun
	inline       chainResult
	adoptedAhead int

	// Scratch of the stage Step is executing and of the evalBranch it may
	// call (exec.go). Touched by the step goroutine only.
	stage, eval stageScratch

	metrics     Metrics
	quarantined []QuarantineRecord
	output      *dataset.Dataset
	err         error
	done        bool
}

// reserver is implemented by probes that can size themselves for a run
// before it starts (obs.Recorder): the plan's stage count and the cluster's
// node count bound what the run will report.
type reserver interface {
	Reserve(stages, nodes int)
}

// span records one closed telemetry span.
func (r *Run) span(node int, kind obs.Kind, name string, start, end sim.VTime) {
	if r.audit != nil {
		r.audit.Span(node, kind, name, start, end)
	}
}

// stageSpan records a master-side span named after a stage. The label is
// formatted for an auditor only: Stage.String is lazy, and a run whose probe
// keeps no audit names no stage.
func (r *Run) stageSpan(kind obs.Kind, st *graph.Stage, start, end sim.VTime) {
	if r.audit != nil {
		r.span(obs.NodeMaster, kind, st.String(), start, end)
	}
}

// spanNodes records one span per worker whose time cursor advanced past
// start: the per-node attribution of a stage's work.
func (r *Run) spanNodes(kind obs.Kind, name string, start sim.VTime, nodeT []sim.VTime) {
	if r.audit == nil {
		return
	}
	for n, t := range nodeT {
		if t > start {
			r.span(n, kind, name, start, t)
		}
	}
}

// observePick converts a scheduling pick into an audit-log decision with
// the Alg. 1 candidate ranking (hint values, best first).
func (r *Run) observePick(rec scheduler.PickRecord) {
	detail := r.pickDetail
	if rec.DepthFirst {
		detail = r.pickDetailDF
	}
	// The probe copies the candidates, so every pick lists them in the same
	// scratch slice.
	r.pickCands = r.pickCands[:0]
	for _, st := range rec.Candidates {
		r.pickCands = append(r.pickCands, obs.Candidate{
			Label: st.String(), Score: st.First().Hint, Chosen: st == rec.Chosen,
		})
	}
	r.audit.Decision(obs.Decision{
		T: r.now, Node: obs.NodeMaster, Component: "scheduler", Kind: "pick",
		Subject: rec.Chosen.String(), Detail: detail, Candidates: r.pickCands,
	})
	r.observeRank(rec)
}

// chooseState is the master-side state of one choose; its slices are indexed
// by branch (the choose's input position).
type chooseState struct {
	session      graph.ChooseSession
	offered      []bool // branch scored
	scores       []float64
	released     []bool // branch dataset already consumed
	quarantined  []bool // branch discarded after persistent op panics
	nOffered     int
	nQuarantined int
	done         bool // remaining branches superfluous
	evalEnd      sim.VTime
	labels       []string // telemetry labels by branch, built on first use
}

// NewRun prepares a run of the plan with the given options. start is the
// virtual time at which the job is submitted.
func NewRun(plan *graph.Plan, opts Options, start sim.VTime) (*Run, error) {
	o := (&opts).withDefaults()
	if o.Cluster == nil {
		return nil, fmt.Errorf("engine: options need a cluster")
	}
	if o.MemPerWorker < 0 {
		return nil, fmt.Errorf("engine: negative per-worker memory budget %d", o.MemPerWorker)
	}
	if err := o.Cluster.Validate(); err != nil {
		return nil, err
	}
	if o.Faults != nil {
		if err := o.Faults.ValidateFor(len(o.Cluster.Nodes)); err != nil {
			return nil, err
		}
	}
	o.Scheduler.Init(plan)
	n := len(plan.Stages)
	r := &Run{
		plan:       plan,
		opts:       o,
		start:      start,
		now:        start,
		executed:   make([]bool, n),
		skipped:    make([]bool, n),
		stageEnd:   make([]sim.VTime, n),
		stageOut:   make([]*dataset.Dataset, n),
		unsettled:  make([]int32, n),
		rowOf:      make(map[dataset.ID]int32),
		sessions:   make([]*chooseState, n),
		stageDur:   make([]sim.VTime, n),
		placement:  make(map[dataset.PartKey]int),
		checkpoint: o.Checkpoint,
	}
	if o.Faults != nil {
		r.injector = faults.NewInjector(o.Faults)
	}
	r.probe = o.Probe
	if rs, ok := o.Probe.(reserver); ok {
		rs.Reserve(n, len(o.Cluster.Nodes))
	}
	r.audit, _ = r.probe.(obs.Auditor)
	r.stage, r.eval = newStageScratch(len(o.Cluster.Nodes)), newStageScratch(len(o.Cluster.Nodes))
	r.indexBranches()
	for _, n := range o.Cluster.Nodes {
		a := memorymgr.NewAllocator(n, o.Cluster.Config, o.MemPerWorker, o.Policy, r)
		a.SetCheckpointing(r.checkpoint)
		a.SetProbe(r.probe)
		r.allocs = append(r.allocs, a)
	}
	if r.probe != nil {
		// Every pick lists its candidates for the audit log; the rank-churn
		// series rides on the same observer, so a probe that keeps no audit
		// gets neither.
		if po, ok := o.Scheduler.(scheduler.PickObservable); ok && r.audit != nil {
			r.pickDetail = "policy=" + o.Scheduler.Name()
			r.pickDetailDF = r.pickDetail + " depth-first"
			po.SetPickObserver(r.observePick)
		}
		if co, ok := r.probe.(cluster.Observer); ok {
			// Resource-occupancy spans: CPU/disk/net busy intervals become
			// per-node resource tracks in the trace.
			o.Cluster.SetObserver(co)
		}
	}
	for _, st := range plan.Stages {
		r.unsettled[st.ID] = int32(len(plan.Pre(st)))
		if r.unsettled[st.ID] == 0 {
			r.ready.insert(st)
		}
	}
	if look, ok := o.Scheduler.(scheduler.Lookahead); ok && runtime.GOMAXPROCS(0) > 1 && look.Lookahead(r.ready.stages()) != nil {
		r.look = look
	}
	return r, nil
}

// FutureAccesses implements memorymgr.AccessCounter for AMM (Alg. 2): the
// number of consumer stages that will still read the dataset.
func (r *Run) FutureAccesses(key dataset.PartKey) int {
	ri, live := r.rowOf[key.Dataset]
	if !live {
		return 0
	}
	return max(r.rows[ri].consumers, 0)
}

// Now returns the job's current virtual time.
func (r *Run) Now() sim.VTime { return r.now }

// Err returns the first execution error.
func (r *Run) Err() error { return r.err }

// CheckpointLive writes a durable on-disk copy of every live dataset
// partition that does not have one yet and returns the number of partitions
// newly checkpointed. It is the drain hook of the service layer: a run
// drained mid-flight checkpoints its live intermediate state — mirrored to
// the durable store when the run has one — and pays for the writes in
// virtual time; the service journals the count. Nothing reads these copies
// afterwards: a resubmitted or restarted job recomputes from its spec.
// The disk writes are charged on the nodes' timelines at the run's current
// virtual time; iteration follows plan order, so the charge sequence is
// deterministic. Valid on finished, failed and canceled runs alike.
func (r *Run) CheckpointLive() int {
	n := 0
	end := r.now
	seen := make(map[dataset.ID]bool)
	for _, st := range r.plan.Stages {
		d := r.stageOut[st.ID]
		if d == nil || seen[d.ID] {
			continue
		}
		seen[d.ID] = true
		ri, live := r.rowOf[d.ID]
		if !live {
			continue
		}
		for i, ref := range r.rows[ri].refs {
			a := r.allocs[r.nodeOf(d.Key(i), i)]
			if !a.Known(ref) || a.Checkpointed(ref) {
				continue
			}
			if t := a.Checkpoint(ref, r.now); t > end {
				end = t
			}
			r.mirrorCheckpoint(st, d, i)
			n++
		}
	}
	r.now = end
	return n
}

// Result finalises and returns the run's result. It is valid once Done.
// The output's partitions carry their boxed rows (Partition.Rows) from the
// first call on: Result is the one place rows are boxed, because only its
// callers read the output through Rows, knowing nothing of the operators'
// column types. The output's partitions are the run's own (operators build
// theirs and sources emit fresh ones, Dataset.Alias) and a done run has
// joined every goroutine computing ahead, so no other run or goroutine sees
// the write. A large output is boxed on the compute-ahead pool (boxOutput),
// and every token that takes is back when Result returns. Boxing is
// idempotent: a second call changes nothing.
func (r *Run) Result() *Result {
	res := r.result()
	if r.done && r.output != nil {
		boxOutput(r.output)
	}
	return res
}

// result is Result without boxing the output, for the readers inside the
// engine (Snapshot), which never read its rows.
func (r *Run) result() *Result {
	res := &Result{
		Start: r.start, End: r.now, Output: r.output,
		Metrics: r.metrics, Quarantined: r.quarantined,
	}
	if r.injector != nil {
		res.Metrics.FaultsInjected = r.injector.Injected()
	}
	for _, a := range r.allocs {
		res.Metrics.Mem.Merge(a.Metrics())
	}
	return res
}

// Step executes the next stage. It returns false once the run is complete
// or failed. Fault injection happens at the scheduling boundaries before
// and after the stage: transient degradation windows are applied to the
// nodes for the current virtual time, and crashes whose triggers have been
// reached fire and are recovered from before the next stage is picked.
func (r *Run) Step() bool {
	if r.done {
		return false
	}
	if ctx := r.opts.Context; ctx != nil {
		if ctx.Err() != nil {
			return r.fail(fmt.Errorf("engine: run canceled after %d stages: %w",
				r.metrics.StagesExecuted, context.Cause(ctx)))
		}
	}
	if err := r.applyFaults(); err != nil {
		return r.fail(err)
	}
	ready := r.ready.stages()
	if len(ready) == 0 {
		r.finish()
		return false
	}
	if r.probe != nil {
		r.probe.Counter(obs.NodeMaster, "sched.queue_depth", r.now, float64(len(ready)))
	}
	next := r.opts.Scheduler.Pick(ready, r.last)
	r.ready.remove(next)
	r.dispatchAhead()

	if err := r.execGuarded(next); err != nil {
		return r.fail(err)
	}
	r.last = next
	if r.executed[next.ID] {
		// A stage absorbed into a branch quarantine counts as pruned, not
		// executed.
		r.metrics.StagesExecuted++
	}
	if err := r.applyFaults(); err != nil {
		return r.fail(err)
	}
	r.refreshReady()
	if r.ready.empty() {
		r.finish()
		return false
	}
	return true
}

// fail ends the run with err; Step returns its false.
func (r *Run) fail(err error) bool {
	r.err = err
	r.stop()
	return false
}

// stop marks the run over, joins the goroutines computing ahead and reports
// the branches' lifetimes.
func (r *Run) stop() {
	r.done = true
	r.joinAhead()
	r.reportBranchIntervals()
}

// execGuarded dispatches the stage to its executor under recover(): a panic
// escaping the per-operator retry machinery (a malformed spec reaching user
// selector code, a chooser session misbehaving mid-run) fails the run with
// an error instead of killing the process, so a bad generated input degrades
// gracefully in a chaos sweep. Construction-time panics (graph builders, mdf
// selector constructors with k < 1) are unaffected — they fire before a Run
// exists and guard true internal invariants.
func (r *Run) execGuarded(next *graph.Stage) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("engine: stage %s: unrecovered panic: %v", next, v)
		}
		r.stage.release()
		r.eval.release()
	}()
	if next.IsChoose() {
		return r.execChoose(next)
	}
	return r.execStage(next)
}

// applyFaults delivers the plan's due fault events at a scheduling boundary:
// it refreshes each node's transient degradation factors for the current
// virtual time and fires (then recovers from) any due crashes.
func (r *Run) applyFaults() error {
	if r.injector == nil {
		return nil
	}
	for i, n := range r.opts.Cluster.Nodes {
		slow, disk := r.injector.TransientFactors(i, r.now.Seconds())
		n.SetFaultFactors(slow, disk)
	}
	for _, c := range r.injector.DueCrashes(r.metrics.StagesExecuted, r.now.Seconds()) {
		if err := r.onCrash(c); err != nil {
			return err
		}
	}
	return nil
}

// RunToCompletion steps the run until done and returns its result.
func (r *Run) RunToCompletion() (*Result, error) {
	for r.Step() {
	}
	if r.err != nil {
		return nil, r.err
	}
	return r.Result(), nil
}

// Execute builds a plan from g and runs it to completion from time 0.
func Execute(g *graph.Graph, opts Options) (*Result, error) {
	plan, err := graph.BuildPlan(g)
	if err != nil {
		return nil, err
	}
	run, err := NewRun(plan, opts, 0)
	if err != nil {
		return nil, err
	}
	return run.RunToCompletion()
}

// finish ends a run whose stages have all settled: it stops the run and
// takes the output from the sink stages, unboxed.
func (r *Run) finish() {
	r.stop()
	// The output is the dataset of the sink stage(s); with several sinks,
	// their outputs are concatenated.
	var outs []*dataset.Dataset
	for _, st := range r.plan.Stages {
		if len(r.plan.Post(st)) == 0 && r.executed[st.ID] {
			if d := r.stageOut[st.ID]; d != nil {
				outs = append(outs, d)
			}
		}
	}
	switch len(outs) {
	case 0:
		return
	case 1:
		r.output = outs[0]
	default:
		r.output = dataset.Concat("output", outs...)
	}
	// The rows stay unboxed: Result boxes them for the callers that read
	// them, and a service job never calls it.
}

// settled releases the successors of a stage that has just been executed
// or skipped: each loses one unsettled predecessor, and those left with none
// join the released list, which is kept in ascending ID.
func (r *Run) settled(st *graph.Stage) {
	for _, post := range r.plan.Post(st) {
		r.unsettled[post.ID]--
		if r.unsettled[post.ID] == 0 {
			i, _ := slices.BinarySearch(r.released, post.ID)
			r.released = slices.Insert(r.released, i, post.ID)
		}
	}
}

// refreshReady moves the stages released since the last refresh onto the
// ready list (Alg. 1, lines 13–15, maintained incrementally). It runs at the
// scheduling boundaries only — the end of a Step, and after a choose
// decision has pruned or quarantined branches — never from the settling
// itself, because of the one rule it applies beyond counting: a choose whose
// branches were all pruned is skipped here, at the run's current time, and
// when a stage settles mid-step the run has not reached the time the step
// will end at. Stages are taken in ascending ID; a skipped choose releases
// only later IDs, which are inserted ahead in the same walk.
func (r *Run) refreshReady() {
	for i := 0; i < len(r.released); i++ {
		st := r.plan.Stages[r.released[i]]
		if r.executed[st.ID] || r.skipped[st.ID] {
			continue // pruned or quarantined after its predecessors settled
		}
		if st.IsChoose() && r.allPredsSkipped(st) && !r.hasQuarantined(st) {
			// A choose whose branches were all pruned cannot execute. With
			// quarantined branches it still runs (degrading to an empty
			// selection) so downstream trunk stages keep their input.
			r.skipStage(st, r.now)
			continue
		}
		r.ready.insert(st)
		r.offerAhead(st)
	}
	r.released = r.released[:0]
}

// readyList is the ready set in ascending stage ID: the stages buf[head:] of
// one buffer the run reuses. A stage leaves either end in O(1), and joins at
// the end when its ID is above the last one's (the successors of the stage
// just executed mostly are) or before head when it is below the first one's;
// anywhere else, either shifts the shorter side. Once the buffer has grown
// to the widest the list gets, nothing allocates (push).
type readyList struct {
	buf  []*graph.Stage
	head int
}

// stages returns the list; it stays valid until the next insert or remove.
func (l *readyList) stages() []*graph.Stage { return l.buf[l.head:] }

func (l *readyList) empty() bool { return l.head == len(l.buf) }

// remove takes st off the list, if it is on it.
func (l *readyList) remove(st *graph.Stage) {
	s := l.stages()
	n := len(s)
	var i int
	switch {
	case n == 0:
		return
	case s[0] == st:
		i = 0
	case s[n-1] == st:
		i = n - 1
	default:
		var ok bool
		if i, ok = graph.SearchID(s, st.ID); !ok {
			return
		}
	}
	if i < n-1-i {
		copy(s[1:i+1], s[:i])
		l.head++
	} else {
		copy(s[i:], s[i+1:])
		l.buf = l.buf[:len(l.buf)-1]
	}
	if l.head == len(l.buf) {
		l.buf, l.head = l.buf[:0], 0
	}
}

// insert puts st, which is not on the list, in its place.
func (l *readyList) insert(st *graph.Stage) {
	s := l.stages()
	n := len(s)
	if n == 0 || s[n-1].ID < st.ID {
		l.push(st)
		return
	}
	i, _ := graph.SearchID(s, st.ID)
	if l.head > 0 && i <= n-i {
		l.head--
		s = l.stages()
		copy(s[:i], s[1:i+1])
		s[i] = st
		return
	}
	l.push(nil)
	s = l.stages()
	copy(s[i+1:], s[i:])
	s[i] = st
}

// push appends st at the end of the buffer, moving the list to the start of
// the buffer instead of growing it when at least half of it is free there.
func (l *readyList) push(st *graph.Stage) {
	if len(l.buf) == cap(l.buf) && 2*l.head >= len(l.buf) && l.head > 0 {
		n := copy(l.buf, l.buf[l.head:])
		l.buf, l.head = l.buf[:n], 0
	}
	l.buf = append(l.buf, st)
}

func (r *Run) allPredsSkipped(st *graph.Stage) bool {
	for _, pre := range r.plan.Pre(st) {
		if !r.skipped[pre.ID] {
			return false
		}
	}
	return true
}

// hasQuarantined reports whether any branch of the choose stage was
// quarantined rather than pruned.
func (r *Run) hasQuarantined(st *graph.Stage) bool {
	cs := r.sessions[st.ID]
	return cs != nil && cs.nQuarantined > 0
}

// readyTime returns the virtual time at which the stage may start.
func (r *Run) readyTime(st *graph.Stage) sim.VTime {
	t := r.start
	for _, pre := range r.plan.Pre(st) {
		if e := r.stageEnd[pre.ID]; e > t {
			t = e
		}
	}
	return t
}

// dataRow is the run's record of one live dataset: the consumer stages
// still to read it (D^c_s; AMM's acc(d)), the stage that first produced it
// (forwarding stages, explore and choose, keep the original producer; lineage
// re-derivation re-executes it), whether it is a sink output (never
// discarded), and the handle of each of its partitions at the allocator of
// the node holding it (refs[i] for partition i, at nodeOf). A dataset
// registered without being stored — a forwarded one, or the empty output of a
// choose that selected nothing — has zero handles, which every allocator
// refuses.
type dataRow struct {
	d         *dataset.Dataset
	consumers int
	producer  int
	protected bool
	refs      []memorymgr.Ref
}

// newRow makes d live with the producing stage st, in a discarded dataset's
// slot if there is one.
func (r *Run) newRow(st *graph.Stage, d *dataset.Dataset) int32 {
	var ri int32
	if n := len(r.freeRows); n > 0 {
		ri, r.freeRows = r.freeRows[n-1], r.freeRows[:n-1]
	} else {
		ri = int32(len(r.rows))
		r.rows = append(r.rows, dataRow{})
	}
	row := &r.rows[ri]
	refs := row.refs[:0]
	for range d.Parts {
		refs = append(refs, memorymgr.Ref{})
	}
	*row = dataRow{d: d, producer: st.ID, refs: refs}
	r.rowOf[d.ID] = ri
	return ri
}

// refOf returns the handle of a live dataset's partition, or the zero handle
// when the dataset is not live.
func (r *Run) refOf(key dataset.PartKey) memorymgr.Ref {
	if ri, live := r.rowOf[key.Dataset]; live {
		return r.rows[ri].refs[key.Index]
	}
	return memorymgr.Ref{}
}

// registerOutput records a produced dataset and its consumer count.
func (r *Run) registerOutput(st *graph.Stage, d *dataset.Dataset) {
	r.stageOut[st.ID] = d
	consumers := 0
	for _, post := range r.plan.Post(st) {
		if !r.skipped[post.ID] {
			consumers++
		}
	}
	ri, live := r.rowOf[d.ID]
	if !live {
		if r.audit != nil {
			// Registration order is the deterministic production order, which
			// gives the dataset its run-stable telemetry alias (raw IDs are
			// process-global and differ between runs). A stored dataset was
			// registered before its partitions were (execStage, execChoose).
			r.audit.RegisterDataset(int64(d.ID), d.Name)
		}
		ri = r.newRow(st, d)
	}
	row := &r.rows[ri]
	if len(r.plan.Post(st)) == 0 {
		// Sink outputs stay live until the end of the job.
		row.protected = true
	}
	row.consumers += consumers
	if r.opts.PinReused && row.consumers > 1 {
		for i, ref := range row.refs {
			r.allocs[r.nodeOf(d.Key(i), i)].Pin(ref)
		}
	}
	if r.checkpoint && r.opts.Policy == memorymgr.AMM && (consumers > 0 || row.protected) {
		// Anticipatory checkpointing (AMM under the fault model): every
		// intermediate that will be consumed — and every sink output — gets
		// a durable on-disk copy, written in the background on its node's
		// disk timeline, so a later crash re-reads it instead of re-deriving
		// it by lineage.
		for i, ref := range row.refs {
			r.allocs[r.nodeOf(d.Key(i), i)].Checkpoint(ref, r.now)
			r.mirrorCheckpoint(st, d, i)
		}
	}
	if n := len(r.rowOf); n > r.metrics.PeakLiveDatasets {
		r.metrics.PeakLiveDatasets = n
	}
}

// consumeInput decrements a dataset's remaining consumers, discarding it
// when no consumer remains (R3). A stage that forwards its input unchanged
// (explore, single-selection choose) consumes it the same way: registerOutput
// has already counted the forwarded dataset's new consumers.
func (r *Run) consumeInput(d *dataset.Dataset) {
	ri, live := r.rowOf[d.ID]
	if !live {
		return
	}
	row := &r.rows[ri]
	row.consumers--
	if row.consumers <= 0 && !row.protected {
		r.discardRow(ri)
	}
}

// unpinDataset releases the PinReused pins of a branch dataset that a
// choose decision has rejected. Without this, a pinned dataset that stays
// live for another consumer would sit in the unevictable pool for the rest
// of the job — the pin leak the leakcheck rule guards against: every Pin
// must have a matching Unpin path.
func (r *Run) unpinDataset(d *dataset.Dataset) {
	if !r.opts.PinReused {
		return
	}
	ri, live := r.rowOf[d.ID]
	if !live {
		return
	}
	for i, ref := range r.rows[ri].refs {
		r.allocs[r.nodeOf(d.Key(i), i)].Unpin(ref)
	}
}

// discardRow drops a dataset no consumer is left for (R3): from the
// allocators' simulated memory and, by clearing every stageOut slot that
// holds it, from the Go heap. Nothing reads the payload of a discarded
// dataset again; recovery re-derives lost partitions in virtual time only.
// The row's slot, handle list included, goes to the next dataset.
func (r *Run) discardRow(ri int32) {
	row := &r.rows[ri]
	d := row.d
	delete(r.rowOf, d.ID)
	r.metrics.DatasetsDiscarded++
	for i, ref := range row.refs {
		key := d.Key(i)
		r.allocs[r.nodeOf(key, i)].Discard(ref)
		if len(r.placement) > 0 {
			delete(r.placement, key)
		}
	}
	producer := row.producer
	row.d = nil
	r.freeRows = append(r.freeRows, ri)
	r.dropPayload(r.plan.Stages[producer], d)
}

// dropPayload clears the stageOut slot of st and of every stage that
// forwarded the dataset from it. A forwarding stage (an explore, a choose
// that selected one branch) takes its output from a direct predecessor, so
// the holders of a dataset are connected to its producer along stage edges.
func (r *Run) dropPayload(st *graph.Stage, d *dataset.Dataset) {
	r.stageOut[st.ID] = nil
	for _, post := range r.plan.Post(st) {
		if r.stageOut[post.ID] == d {
			r.dropPayload(post, d)
		}
	}
}
