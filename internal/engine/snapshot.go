package engine

import (
	"metadataflow/internal/obs"
)

// Snapshot aggregates the run's metrics into the schema-stable telemetry
// snapshot (obs.SnapshotSchema): engine counters, memory-manager totals,
// fault statistics, a stage-duration histogram, per-node allocator state,
// and the injected-fault history. It is valid at any point of the run; the
// usual call site is after completion (mdf run -metrics). Everything is
// emitted in deterministic order (Normalize sorts by name; stages iterate
// in plan order; fault events keep injection order), so serializing the
// snapshot of the same seed twice is byte-identical.
func (r *Run) Snapshot() *obs.Snapshot {
	res := r.result()
	m := res.Metrics

	s := obs.NewSnapshot()
	s.CompletionSec = res.CompletionTime()

	s.AddCounter("engine.stages_executed", int64(m.StagesExecuted))
	s.AddCounter("engine.stages_pruned", int64(m.StagesPruned))
	s.AddCounter("engine.branches_pruned", int64(m.BranchesPruned))
	s.AddCounter("engine.branches_discarded", int64(m.BranchesDiscarded))
	s.AddCounter("engine.datasets_discarded", int64(m.DatasetsDiscarded))
	s.AddCounter("engine.peak_live_datasets", int64(m.PeakLiveDatasets))
	s.AddCounter("engine.choose_evals", int64(m.ChooseEvals))

	s.AddCounter("mem.hits", m.Mem.Hits)
	s.AddCounter("mem.misses", m.Mem.Misses)
	s.AddCounter("mem.bytes_from_mem", m.Mem.BytesFromMem.Int64())
	s.AddCounter("mem.bytes_from_disk", m.Mem.BytesFromDisk.Int64())
	s.AddCounter("mem.evictions", m.Mem.Evictions)
	s.AddCounter("mem.spilled_bytes", m.Mem.SpilledBytes.Int64())
	s.AddCounter("mem.checkpoints", m.Mem.Checkpoints)
	s.AddCounter("mem.checkpointed_bytes", m.Mem.CheckpointedBytes.Int64())
	s.AddCounter("mem.peak_resident_bytes", m.Mem.PeakResidentBytes.Int64())

	// End-of-run residency audit counters: live_partitions is the number of
	// partitions still tracked across all allocators, pinned_partitions the
	// number still pinned. At completion the latter must be zero (pins
	// balance); the chaos accounting oracle checks it through this snapshot.
	pinned, tracked := 0, 0
	for _, a := range r.allocs {
		pinned += a.PinnedParts()
		tracked += a.TrackedParts()
	}
	s.AddCounter("mem.pinned_partitions", int64(pinned))
	s.AddCounter("mem.live_partitions", int64(tracked))

	s.AddCounter("faults.injected", int64(m.FaultsInjected))
	s.AddCounter("faults.node_crashes", int64(m.NodeCrashes))
	s.AddCounter("faults.panics_injected", int64(m.PanicsInjected))
	s.AddCounter("faults.retries", int64(m.Retries))
	s.AddCounter("faults.stages_reexecuted", int64(m.StagesReExecuted))
	s.AddCounter("faults.partitions_rederived", int64(m.PartitionsRederived))
	s.AddCounter("faults.partitions_rebalanced", int64(m.PartitionsRebalanced))
	s.AddCounter("faults.branches_quarantined", int64(m.BranchesQuarantined))
	s.AddCounter("faults.rederived_bytes", m.RederivedBytes.Int64())

	s.AddGauge("engine.compute_sec", m.ComputeSec.Seconds())
	s.AddGauge("faults.recovery_sec", m.RecoverySec.Seconds())
	s.AddGauge("mem.hit_ratio", m.Mem.HitRatio())

	// Stage durations, iterated in plan order (stage IDs are topologically
	// ordered) so histogram totals accumulate deterministically.
	h := obs.NewHistogram("engine.stage_duration", "virtual_seconds",
		[]float64{0.1, 1, 10, 100, 1000})
	for _, st := range r.plan.Stages {
		if r.executed[st.ID] {
			h.Observe(r.stageDur[st.ID].Seconds())
		}
	}
	s.Histograms = append(s.Histograms, *h)

	for i, a := range r.allocs {
		am := a.Metrics()
		s.Nodes = append(s.Nodes, obs.NodeSnapshot{
			ID:                i,
			Alive:             r.opts.Cluster.Alive(i),
			ResidentBytes:     a.Used(),
			CapacityBytes:     a.Capacity(),
			SpilledBytes:      am.SpilledBytes,
			CheckpointedBytes: am.CheckpointedBytes,
			Hits:              am.Hits,
			Misses:            am.Misses,
			Evictions:         am.Evictions,
			Checkpoints:       am.Checkpoints,
		})
	}

	if r.injector != nil {
		for _, ev := range r.injector.History() {
			s.Faults = append(s.Faults, obs.FaultEvent{
				Kind: ev.Kind, Node: ev.Node, Op: ev.Op, Detail: ev.Detail,
			})
		}
	}

	s.Normalize()
	return s
}
