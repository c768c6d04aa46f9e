package engine

import (
	"fmt"
	"strings"

	"metadataflow/internal/ckptstore"
	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/obs"
	"metadataflow/internal/spec"
)

// This file mirrors the allocators' durable-copy bookkeeping into a real
// content-addressed checkpoint store (internal/ckptstore). The simulation
// keeps modelling checkpoint I/O costs through the allocators; the store
// adds the bytes themselves, keyed by the spec chain-prefix hash of the
// producing operator.
//
// The store is read at one point only: when a node crashes inside a run,
// before trusting a partition's durable copy, the engine loads and checksums
// its store entry. A restarted service does not read it: a job interrupted by
// the restart re-executes from its journaled spec. A miss —
// absent, torn, or bit-flipped — demotes the copy and the partition is
// re-derived by lineage, which is the paper's recovery path for
// un-checkpointed state. Corruption therefore costs recovery time, never
// correctness.

// chainOf maps a stage's output to its spec chain hash: the chain of the
// stage's final operator. Reports false when no mapping was provided
// (runs built directly from graphs rather than specs).
func (r *Run) chainOf(st *graph.Stage) (spec.Hash, bool) {
	last := st.Last()
	if last == nil || last.ID < 0 || last.ID >= len(r.opts.CkptChains) {
		return 0, false
	}
	return r.opts.CkptChains[last.ID], true
}

// encodePartition renders a partition's rows as the store payload. The
// fmt-based encoding is type-agnostic (rows are opaque to the engine) and
// deterministic for the deterministic row values a fixed spec produces —
// the same property the chaos harness's output checksums rely on.
func encodePartition(p *dataset.Partition) []byte {
	var b strings.Builder
	for _, row := range p.BoxedRows() {
		fmt.Fprintf(&b, "%v\x1f", row)
	}
	return []byte(b.String())
}

// mirrorCheckpoint writes partition i of stage st's output dataset into
// the checkpoint store, if a store and a chain mapping exist. Mirror
// failures are swallowed: the durable copy just will not verify later,
// which recovery already treats as re-derive.
func (r *Run) mirrorCheckpoint(st *graph.Stage, d *dataset.Dataset, i int) {
	if r.opts.Ckpts == nil {
		return
	}
	chain, ok := r.chainOf(st)
	if !ok {
		return
	}
	_ = r.opts.Ckpts.Put(ckptstore.Key{Chain: chain, Part: i}, encodePartition(&d.Parts[i])) //lint:allow droppederr -- mirror is best-effort; a failed write surfaces as a miss on load
}

// stageOfDataset finds the plan stage whose output is the dataset, in
// plan order. Forwarding stages share their producer's dataset and — by
// construction of the chain hashes — its chain, so any match keys the
// same store entry.
func (r *Run) stageOfDataset(id dataset.ID) *graph.Stage {
	if ri, live := r.rowOf[id]; live {
		return r.plan.Stages[r.rows[ri].producer]
	}
	return nil
}

// verifyCkpt loads and checksums the checkpoint-store entry backing the
// durable copy of partition key, and returns the entry's store key. A
// non-nil error is a miss: the entry is absent, torn or bit-flipped. A copy
// no entry can be named for (no producing stage, no chain mapping) is
// trusted. Checkpoint bit-flip faults (faults.CkptFlip) fire here, counted
// by load ordinal.
func (r *Run) verifyCkpt(key dataset.PartKey) (ckptstore.Key, error) {
	st := r.stageOfDataset(key.Dataset)
	if st == nil {
		return ckptstore.Key{}, nil
	}
	chain, ok := r.chainOf(st)
	if !ok {
		return ckptstore.Key{}, nil
	}
	sk := ckptstore.Key{Chain: chain, Part: key.Index}
	if r.injector != nil {
		if bit, flip := r.injector.NextCkptLoad(); flip {
			_ = r.opts.Ckpts.CorruptEntry(sk, bit) //lint:allow droppederr -- injected corruption; a missing entry is just a miss
		}
	}
	_, err := r.opts.Ckpts.Get(sk)
	return sk, err
}

// ckptMiss logs the decision to distrust the durable copy behind sk.
func (r *Run) ckptMiss(sk ckptstore.Key, err error) {
	if r.audit != nil {
		r.audit.Decision(obs.Decision{
			T: r.now, Node: obs.NodeMaster, Component: "faults", Kind: "ckptmiss",
			Subject: sk.String(), Detail: err.Error(),
		})
	}
}

// distrustCorrupt verifies the checkpoint-store entries backing the
// allocator's surviving durable copies after a crash of node. Copies
// whose entries are missing or fail their checksum are demoted and
// returned as lost, joining the lineage re-derivation pass.
func (r *Run) distrustCorrupt(alloc *memorymgr.Allocator) []memorymgr.Lost {
	if r.opts.Ckpts == nil {
		return nil
	}
	var lost []memorymgr.Lost
	for _, key := range alloc.Keys() {
		ref := r.refOf(key)
		if !alloc.Checkpointed(ref) {
			continue
		}
		if sk, err := r.verifyCkpt(key); err != nil {
			if l, ok := alloc.DropDurable(ref); ok {
				lost = append(lost, l)
				r.ckptMiss(sk, err)
			}
		}
	}
	return lost
}

// verifyEvacuated splits a permanently dead node's checkpointed
// partitions into those whose store entries verify (rebalanced onto
// survivors) and those that do not (re-derived by lineage). Without a
// store every copy is trusted, as before.
func (r *Run) verifyEvacuated(checkpointed []memorymgr.Lost) (ok, corrupt []memorymgr.Lost) {
	if r.opts.Ckpts == nil {
		return checkpointed, nil
	}
	for _, l := range checkpointed {
		if sk, err := r.verifyCkpt(l.Key); err != nil {
			corrupt = append(corrupt, l)
			r.ckptMiss(sk, err)
		} else {
			ok = append(ok, l)
		}
	}
	return ok, corrupt
}
