package engine

import (
	"errors"
	"fmt"

	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
	"metadataflow/internal/obs"
	"metadataflow/internal/sim"
)

// orderAware matches sessions whose property-based pruning requires the
// scheduler to execute branches in sorted explorable order (Tab. 1).
type orderAware interface {
	SetSortedOrder(sorted bool)
}

// stageScratch holds the buffers one stage execution fills and is done with
// by the time it returns: the input list, the one-element list a lone dataset
// is passed in, the per-node time cursors, the live nodes, and the per-node
// sums of chargeCompute and chargeShuffle. A Run has two, stage for the stage
// Step executes and eval for the evalBranch that stage may call while its own
// buffers are in use. Only the goroutine that steps the run touches them: what
// is handed to a goroutine that computes ahead (offerAhead's inputs) is
// allocated, and computeChain takes its one-element lists from the
// chainResult it fills.
type stageScratch struct {
	ins     []*dataset.Dataset
	one     [1]*dataset.Dataset
	nodeT   []sim.VTime
	live    []int
	shares  []float64
	caps    []float64
	perNode []sim.Bytes
}

func newStageScratch(nodes int) stageScratch {
	return stageScratch{
		nodeT:   make([]sim.VTime, nodes),
		live:    make([]int, 0, nodes),
		shares:  make([]float64, nodes),
		caps:    make([]float64, nodes),
		perNode: make([]sim.Bytes, nodes),
	}
}

// release drops the datasets the scratch lists, so that it keeps no
// discarded payload reachable between stages.
func (sc *stageScratch) release() {
	clear(sc.ins)
	sc.ins, sc.one[0] = sc.ins[:0], nil
}

// only returns d as a one-element list.
func (sc *stageScratch) only(d *dataset.Dataset) []*dataset.Dataset {
	sc.one[0] = d
	return sc.one[:]
}

// execStage executes a non-choose stage: it loads the inputs through the
// memory allocators, applies the pipelined operator chain for real, charges
// the virtual compute cost, and stores the output partitions.
func (r *Run) execStage(st *graph.Stage) error {
	ready := r.readyTime(st)
	sc := &r.stage
	sc.ins = r.inputs(sc.ins[:0], st)
	ins := sc.ins

	// Explore operators simply forward their input (Def. 3.2); they incur
	// no computation or I/O.
	if st.IsExplore() {
		if len(ins) != 1 || ins[0] == nil {
			return fmt.Errorf("engine: explore %s without input", st)
		}
		d := ins[0]
		r.registerOutput(st, d)
		r.consumeForward(d)
		r.markExecuted(st, ready, ready)
		r.stageSpan(obs.KindStage, st, ready, ready)
		return nil
	}

	for i, d := range ins {
		if d == nil {
			return fmt.Errorf("engine: stage %s input %d missing", st, i)
		}
	}

	// The host work of the chain: what was computed ahead of the pick, or an
	// empty result the first operator's call fills.
	res := r.resultFor(st)
	defer res.release()

	nodeT, err := r.loadInputs(sc, ins, ready)
	if err != nil {
		return fmt.Errorf("engine: stage %s: %w", st, err)
	}
	r.chargeShuffle(sc, st, ins, nodeT)

	// Apply the operator chain for real, accumulating virtual compute cost.
	// Fixed costs model inherently data-parallel work (e.g. a training
	// epoch) and spread evenly across workers; per-MB costs follow the
	// placement of the input bytes.
	var out *dataset.Dataset
	var cpuFixed, cpuScan, retryPenalty sim.VTime
	var externalBytes sim.Bytes
	inBytes := sim.Bytes(0) // what the operator at hand reads
	for _, d := range ins {
		inBytes += sim.Bytes(d.VirtualBytes())
	}
	for i, op := range st.Ops {
		var penalty sim.VTime
		out, penalty, err = r.runTransform(st, i, ins, res)
		retryPenalty += penalty
		if err != nil {
			var pe *opPanicError
			if errors.As(err, &pe) {
				if chooseSt, branch, ok := r.branchOfStage(st); ok {
					// A persistently panicking operator on a branch
					// quarantines the branch; the stage is absorbed into
					// the quarantine (skipped) and the run continues.
					r.now += retryPenalty
					r.quarantine(chooseSt, branch, err.Error())
					return nil
				}
			}
			return fmt.Errorf("engine: stage %s op %q: %w", st, op.Name, err)
		}
		if out == nil {
			return fmt.Errorf("engine: stage %s op %q returned nil dataset", st, op.Name)
		}
		if op.Kind == graph.KindSource {
			// Reading the external input charges a disk scan (§6.1: "it
			// requires a linear scan over the entire dataset").
			externalBytes += sim.Bytes(out.VirtualBytes())
			inBytes = sim.Bytes(out.VirtualBytes())
		}
		cpuFixed += sim.VTime(op.FixedCost)
		cpuScan += sim.VTime(op.CostPerMB * inBytes.MB())
		inBytes = sim.Bytes(out.VirtualBytes())
	}
	if res.ahead {
		// Dataset IDs break ties in the memory manager and order lost
		// partitions, and within a run they rise in production order. A
		// dataset made ahead of the pick took its ID whenever its goroutine got
		// to it; it is numbered again here, in adoption order.
		out.ID = dataset.NewID()
		r.adoptedAhead++
	}
	if retryPenalty > 0 {
		// Backoff between panic retries stalls the whole stage.
		for n := range nodeT {
			nodeT[n] += retryPenalty
		}
	}

	if externalBytes > 0 {
		live := r.liveAllocs(sc)
		per := externalBytes / sim.Bytes(len(live))
		for _, n := range live {
			end := r.opts.Cluster.Nodes[n].Disk(nodeT[n], r.opts.Cluster.Config.DiskReadSec(per))
			nodeT[n] = end
		}
	}

	r.chargeCompute(sc, ins, cpuFixed, cpuScan, nodeT)
	if r.probe != nil {
		// Register before storing: evictions triggered while the output's
		// first partitions land may already name later partitions of this
		// dataset in the audit log.
		r.probe.RegisterDataset(int64(out.ID), out.Name)
	}
	end := r.storeOutput(out, nodeT)

	for _, d := range ins {
		r.consumeInput(d)
	}
	r.registerOutput(st, out)
	r.markExecuted(st, ready, end)
	if r.probe != nil {
		r.spanNodes(obs.KindStage, st.String(), ready, nodeT)
	}

	// Incremental choose evaluation (§3.1): if this stage completes a
	// branch of an associative choose, score it immediately.
	if r.opts.Incremental {
		for _, post := range r.plan.Post(st) {
			if post.IsChoose() && post.Ops[0].Chooser.Associative() {
				if err := r.evalBranchOf(post, st); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// inputs appends to dst the datasets of the stage's predecessors in edge
// order (nil entries for skipped predecessors).
func (r *Run) inputs(dst []*dataset.Dataset, st *graph.Stage) []*dataset.Dataset {
	for _, pre := range r.plan.Pre(st) {
		dst = append(dst, r.stageOut[pre.ID])
	}
	return dst
}

// loadInputs charges the access cost of every input partition and returns
// the per-node time cursors. An input the run holds live has every partition
// in its node's allocator; one that is not there was lost by the run's own
// bookkeeping, and reading on would leave the read uncharged.
func (r *Run) loadInputs(sc *stageScratch, ins []*dataset.Dataset, ready sim.VTime) ([]sim.VTime, error) {
	nodeT := sc.nodeT
	for i := range nodeT {
		nodeT[i] = ready
	}
	for _, d := range ins {
		if d == nil {
			continue
		}
		for i := range d.Parts {
			n := r.nodeOf(d.Key(i), i)
			end, _, err := r.allocs[n].Access(d.Key(i), nodeT[n])
			if err != nil {
				if _, live := r.datasets[d.ID]; live {
					return nil, fmt.Errorf("reading live dataset %q: %w", d.Name, err)
				}
				continue
			}
			if end > nodeT[n] {
				nodeT[n] = end
			}
		}
	}
	return nodeT, nil
}

// chargeShuffle charges the network cost of wide input dependencies: each
// worker ships the (W-1)/W share of its partitions that other workers'
// tasks consume (App. A wide dependencies; the testbed's 1 Gbps links).
func (r *Run) chargeShuffle(sc *stageScratch, st *graph.Stage, ins []*dataset.Dataset, nodeT []sim.VTime) {
	w := len(r.allocs)
	if w <= 1 {
		return
	}
	first := st.First()
	for i, pre := range r.plan.Pre(st) {
		d := ins[i]
		if d == nil {
			continue
		}
		dep, ok := r.plan.Graph.Dep(pre.Last(), first)
		if !ok || dep != graph.Wide {
			continue
		}
		perNode := sc.perNode
		clear(perNode)
		for pi, p := range d.Parts {
			perNode[r.nodeOf(d.Key(pi), pi)] += sim.Bytes(p.VirtualBytes)
		}
		for n, bytes := range perNode {
			if bytes == 0 {
				continue
			}
			moved := bytes * sim.Bytes(w-1) / sim.Bytes(w)
			end := r.opts.Cluster.Nodes[n].Net(nodeT[n], r.opts.Cluster.Config.NetSec(moved))
			if end > nodeT[n] {
				nodeT[n] = end
			}
		}
	}
}

// chargeCompute advances the node cursors by the stage's compute cost:
// fixed cost spreads evenly over all workers (data-parallel work), scan cost
// follows each node's share of the input bytes.
func (r *Run) chargeCompute(sc *stageScratch, ins []*dataset.Dataset, cpuFixed, cpuScan sim.VTime, nodeT []sim.VTime) {
	if cpuFixed <= 0 && cpuScan <= 0 {
		return
	}
	scale := r.opts.Cluster.Config.ComputeScale
	cpuFixed = sim.VTime(float64(cpuFixed) * scale)
	cpuScan = sim.VTime(float64(cpuScan) * scale)
	r.metrics.ComputeSec += cpuFixed + cpuScan
	live := r.liveAllocs(sc)
	shares := sc.shares
	clear(shares)
	var total float64
	for _, d := range ins {
		if d == nil {
			continue
		}
		for i, p := range d.Parts {
			shares[r.nodeOf(d.Key(i), i)] += float64(p.VirtualBytes)
			total += float64(p.VirtualBytes)
		}
	}
	if total == 0 {
		for _, n := range live {
			shares[n] = 1
			total++
		}
	}
	if r.opts.Speculative {
		// Speculative re-execution rebalances compute by node speed: a
		// node's share is proportional to its capacity 1/slowdown, so a
		// straggler no longer gates the stage (§5 straggler mitigation).
		// The effective factor includes transient fault-injected slowdowns
		// and honours factors < 1 (faster-than-baseline nodes).
		var capTotal float64
		caps := sc.caps
		for _, n := range live {
			sf := r.opts.Cluster.Nodes[n].EffectiveSlowFactor()
			if sf <= 0 {
				sf = 1
			}
			caps[n] = 1 / sf
			capTotal += caps[n]
		}
		work := cpuFixed + cpuScan
		for _, n := range live {
			dur := sim.VTime(float64(work) * caps[n] / capTotal)
			if dur <= 0 {
				continue
			}
			nodeT[n] = r.opts.Cluster.Nodes[n].CPU(nodeT[n], dur)
		}
		return
	}
	perNodeFixed := cpuFixed / sim.VTime(len(live))
	for _, n := range live {
		dur := perNodeFixed + sim.VTime(float64(cpuScan)*shares[n]/total)
		if dur <= 0 {
			continue
		}
		end := r.opts.Cluster.Nodes[n].CPU(nodeT[n], dur)
		nodeT[n] = end
	}
}

// storeOutput writes the output partitions to their nodes and returns the
// stage completion time.
func (r *Run) storeOutput(out *dataset.Dataset, nodeT []sim.VTime) sim.VTime {
	for i, p := range out.Parts {
		n := r.placeNew(out.Key(i), i)
		end := r.allocs[n].Put(out.Key(i), sim.Bytes(p.VirtualBytes), nodeT[n])
		if end > nodeT[n] {
			nodeT[n] = end
		}
	}
	end := sim.VTime(0)
	for _, t := range nodeT {
		if t > end {
			end = t
		}
	}
	return end
}

func (r *Run) markExecuted(st *graph.Stage, ready, end sim.VTime) {
	r.executed[st.ID] = true
	r.countSettled(st, true)
	r.settled(st)
	r.stageEnd[st.ID] = end
	if d := end - ready; d > 0 {
		// Recorded as the lineage re-execution cost of the stage's output.
		r.stageDur[st.ID] = d
	}
	if end > r.now {
		r.now = end
	}
	r.observeStageDone(st, ready, end, true)
}

// consumeForward adjusts consumer accounting when a stage forwards its input
// dataset unchanged (explore, single-selection choose): the forwarding read
// is replaced by the new consumers registered by registerOutput.
func (r *Run) consumeForward(d *dataset.Dataset) {
	if _, live := r.datasets[d.ID]; !live {
		return
	}
	r.consumersLeft[d.ID]--
	if r.consumersLeft[d.ID] <= 0 && !r.protected(d.ID) {
		r.discardDataset(d)
	}
}
