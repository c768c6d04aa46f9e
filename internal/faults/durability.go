package faults

import (
	"fmt"

	"metadataflow/internal/stats"
)

// This file extends the fault model across the process boundary: faults
// against the service's durable state rather than the running cluster.
// Two layers exist. CkptFlip lives inside a job's Plan and corrupts
// durable checkpoint-store entries at load time, exercising the
// corruption-is-a-miss fallback to lineage re-derivation inside one run.
// Durability describes damage applied to a service state directory
// between process incarnations — torn journal tails, journal and
// checkpoint bit-flips — which the crash-restart oracle (internal/chaos)
// applies when it reconstructs the state that survived a kill at a
// journal-record boundary.

// CkptFlip corrupts the checkpoint-store entry touched by the Load-th
// durable-checkpoint read of the run (0-based, counted across the whole
// run in deterministic verification order): one bit of the stored file
// is flipped before the read, so verification fails and the partition is
// re-derived by lineage. Because load ordinals are deterministic, the
// same flip fires at the same point in a golden run and its post-restart
// re-execution.
type CkptFlip struct {
	// Load is the 0-based store-read ordinal to corrupt.
	Load int `json:"load"`
	// Bit is the bit to flip, taken modulo the entry's payload width.
	Bit int `json:"bit"`
}

// NextCkptLoad advances the durable-checkpoint read counter and reports
// whether this read must be corrupted first: the bit to flip and true
// when a CkptFlip targets this ordinal. Each flip fires at most once.
func (in *Injector) NextCkptLoad() (bit int, flip bool) {
	ord := in.ckptLoads
	in.ckptLoads++
	for i, f := range in.plan.CkptFlips {
		if in.flipUsed[i] || f.Load != ord {
			continue
		}
		in.flipUsed[i] = true
		in.record(Event{Kind: "ckptflip", Node: -1, Detail: fmt.Sprintf("load=%d bit=%d", f.Load, f.Bit)})
		return f.Bit, true
	}
	return 0, false
}

// BitFlip flips one bit of the Index-th object of its target set — a
// journal record or a checkpoint-store entry, counted in that store's
// deterministic order.
type BitFlip struct {
	// Index is the 0-based object index (journal record number, or
	// checkpoint entry position in sorted-key order).
	Index int `json:"index"`
	// Bit is the bit to flip, taken modulo the object's payload width.
	Bit int `json:"bit"`
}

// Durability is the damage a crash leaves in a service state directory.
// The crash point itself — which journal-record boundary the process
// died at — is enumerated exhaustively by the oracle, so it is not part
// of this struct; Durability describes what the surviving bytes look
// like at that point.
type Durability struct {
	// TornTailBytes appends this many bytes of the next record's encoded
	// frame after the cut, modelling a write torn mid-record. 0 is a
	// clean cut at the boundary; the count is clamped to the frame size.
	TornTailBytes int `json:"tornTailBytes,omitempty"`
	// JournalFlips corrupt surviving journal records. Replay must stop
	// at the first corrupt record with a typed error, and recovery must
	// proceed from the intact prefix. Indexes at or past the cut are
	// ignored by the oracle (the record did not survive).
	JournalFlips []BitFlip `json:"journalFlips,omitempty"`
	// CkptFileFlips corrupt durable checkpoint-store entries. Loads must
	// miss and re-derive; no job may fail because of them.
	CkptFileFlips []BitFlip `json:"ckptFileFlips,omitempty"`
}

// GenDurability derives a concrete durability fault set from the seed:
// a torn tail of 1..maxTorn bytes, one journal bit-flip, and one
// checkpoint bit-flip, with indexes drawn below the given object counts.
// Zero counts drop the corresponding fault. The draw order is fixed so
// one seed always yields one fault set.
func GenDurability(seed int64, maxTorn, journalRecords, ckptEntries int) *Durability {
	rng := stats.NewRNG(seed)
	d := &Durability{}
	if maxTorn > 0 {
		d.TornTailBytes = 1 + rng.Intn(maxTorn)
	}
	if journalRecords > 0 {
		d.JournalFlips = []BitFlip{{Index: rng.Intn(journalRecords), Bit: rng.Intn(512)}}
	}
	if ckptEntries > 0 {
		d.CkptFileFlips = []BitFlip{{Index: rng.Intn(ckptEntries), Bit: rng.Intn(512)}}
	}
	return d
}
