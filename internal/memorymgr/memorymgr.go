// Package memorymgr implements the worker-side memory allocator of §5 and
// the eviction policies of §4.3: the least-recently-used baseline and
// anticipatory memory management (AMM, Alg. 2). An allocator manages one
// node's dataset memory for one job, tracks residency (in memory vs. spilled
// to disk), charges virtual I/O time on the node's resource timelines, and
// records the memory-hit-ratio statistics reported in §6.2.
package memorymgr

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/obs"
	"metadataflow/internal/sim"
)

// PolicyKind selects an eviction policy.
type PolicyKind int

const (
	// LRU evicts the dataset partition that has not been used for the
	// longest (the Spark-style baseline, §2.1).
	LRU PolicyKind = iota
	// AMM evicts the partition with the lowest preference
	// pre(d) = acc(d) · δ(n,d) · α (Alg. 2).
	AMM
)

// String implements fmt.Stringer.
func (p PolicyKind) String() string {
	switch p {
	case LRU:
		return "LRU"
	case AMM:
		return "AMM"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy returns the policy whose String is name, in any letter case:
// "amm" and "AMM" alike.
func ParsePolicy(name string) (PolicyKind, error) {
	for _, p := range []PolicyKind{LRU, AMM} {
		if strings.EqualFold(name, p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q (want amm or lru)", name)
}

// AccessCounter reports acc(d): how many times the dataset owning a
// partition will still be read as operator input, given the stages executed
// and branches pruned so far. The engine implements this from the MDF
// structure (Alg. 2, lines 1–3).
type AccessCounter interface {
	FutureAccesses(key dataset.PartKey) int
}

// Metrics aggregates memory-manager statistics for one job run.
type Metrics struct {
	// Hits and Misses count partition accesses served from memory or disk.
	Hits, Misses int64
	// BytesFromMem and BytesFromDisk are the corresponding byte volumes.
	BytesFromMem, BytesFromDisk sim.Bytes
	// Evictions counts spill decisions; SpilledBytes their volume.
	Evictions    int64
	SpilledBytes sim.Bytes
	// Checkpoints counts anticipatory checkpoint writes; CheckpointedBytes
	// their volume. Only populated when checkpointing is enabled.
	Checkpoints       int64
	CheckpointedBytes sim.Bytes
	// PeakResidentBytes is the high-water mark of memory use across nodes.
	PeakResidentBytes sim.Bytes
}

// HitRatio returns the fraction of data accesses served from memory
// (the paper's "memory hit ratio", §6.2).
func (m *Metrics) HitRatio() float64 {
	total := m.Hits + m.Misses
	if total == 0 {
		return 1
	}
	return float64(m.Hits) / float64(total)
}

// Merge accumulates other into m.
func (m *Metrics) Merge(other *Metrics) {
	m.Hits += other.Hits
	m.Misses += other.Misses
	m.BytesFromMem += other.BytesFromMem
	m.BytesFromDisk += other.BytesFromDisk
	m.Evictions += other.Evictions
	m.SpilledBytes += other.SpilledBytes
	m.Checkpoints += other.Checkpoints
	m.CheckpointedBytes += other.CheckpointedBytes
	if other.PeakResidentBytes > m.PeakResidentBytes {
		m.PeakResidentBytes = other.PeakResidentBytes
	}
}

// entry is the allocator's record of one partition. It belongs to the
// allocator that cut it from its slab (newEntry) until release hands the slot
// back for the next partition; no pointer to an entry outlives the call that
// looked it up.
type entry struct {
	key        dataset.PartKey
	bytes      sim.Bytes
	lastAccess sim.VTime
	// slot is the entry's index in Allocator.resident while inMemory.
	slot     int32
	inMemory bool
	pinned   bool
	// onDisk records a durable copy on this node's disk, written either by a
	// spill or by an anticipatory checkpoint. A crashed node re-reads onDisk
	// partitions; the rest are lost and must be re-derived by lineage.
	onDisk bool
}

// Allocator manages the dataset memory of one worker node for one job.
type Allocator struct {
	node     *cluster.Node
	cfg      cluster.Config
	capacity sim.Bytes
	policy   PolicyKind
	acc      AccessCounter
	alpha    float64

	used    sim.Bytes
	entries map[dataset.PartKey]*entry
	// resident lists the entries in memory, in no particular order (an entry
	// leaving takes the last one's place): what a victim is chosen among,
	// without a walk over the spilled ones.
	resident []*entry
	// slab is the chunk entries are being cut from, free the entries handed
	// back since. Chunks are entryChunk entries and live as long as the
	// allocator.
	slab    []entry
	free    []*entry
	spilled map[dataset.PartKey]sim.Bytes
	metrics Metrics
	seq     sim.VTime // tie-breaking sequence for identical timestamps

	// checkpointing enables durable-copy awareness: spilling a partition
	// that already has an on-disk copy skips the redundant write, and the
	// engine may call Checkpoint to write copies anticipatorily. Off by
	// default so fault-free runs charge exactly the seed's costs.
	checkpointing bool

	// probe, when non-nil, receives residency counter samples; audit, the
	// probe's audit half when it has one, evict/checkpoint decisions with
	// their Alg. 2 valuations.
	probe obs.Probe
	audit obs.Auditor
}

// NewAllocator creates an allocator with the given memory capacity on node.
// acc may be nil when the policy is LRU.
func NewAllocator(node *cluster.Node, cfg cluster.Config, capacity sim.Bytes, policy PolicyKind, acc AccessCounter) *Allocator {
	return &Allocator{
		node:     node,
		cfg:      cfg,
		capacity: capacity,
		policy:   policy,
		acc:      acc,
		alpha:    cfg.Alpha(),
		entries:  make(map[dataset.PartKey]*entry),
		spilled:  make(map[dataset.PartKey]sim.Bytes),
	}
}

// entryChunk is the number of entries allocated at a time.
const entryChunk = 32

// newEntry tracks a partition under key, in a released slot if there is one.
func (a *Allocator) newEntry(key dataset.PartKey, bytes sim.Bytes) *entry {
	var e *entry
	if n := len(a.free); n > 0 {
		e, a.free = a.free[n-1], a.free[:n-1]
	} else {
		if len(a.slab) == cap(a.slab) {
			a.slab = make([]entry, 0, entryChunk)
		}
		a.slab = a.slab[:len(a.slab)+1]
		e = &a.slab[len(a.slab)-1]
	}
	*e = entry{key: key, bytes: bytes}
	a.entries[key] = e
	return e
}

// release stops tracking e and frees its slot.
func (a *Allocator) release(e *entry) {
	if e.inMemory {
		a.vacate(e)
	}
	delete(a.entries, e.key)
	a.free = append(a.free, e)
}

// admit makes e resident.
func (a *Allocator) admit(e *entry) {
	e.inMemory, e.slot = true, int32(len(a.resident))
	a.resident = append(a.resident, e)
	a.used += e.bytes
	if a.used > a.metrics.PeakResidentBytes {
		a.metrics.PeakResidentBytes = a.used
	}
}

// vacate takes e out of memory.
func (a *Allocator) vacate(e *entry) {
	last := len(a.resident) - 1
	moved := a.resident[last]
	a.resident[e.slot], moved.slot = moved, e.slot
	a.resident = a.resident[:last]
	e.inMemory = false
	a.used -= e.bytes
}

// Metrics returns the accumulated statistics.
func (a *Allocator) Metrics() *Metrics { return &a.metrics }

// SetProbe installs (or, with nil, removes) the telemetry probe. Decisions
// are built only when the probe is also an obs.Auditor.
func (a *Allocator) SetProbe(p obs.Probe) {
	a.probe = p
	a.audit, _ = p.(obs.Auditor)
}

// sampleResident reports the node's current resident bytes to the probe.
func (a *Allocator) sampleResident(t sim.VTime) {
	if a.probe != nil {
		a.probe.Counter(a.node.ID, "mem.resident_bytes", t, float64(a.used))
	}
}

// sampleSpilled reports the node's cumulative spill volume to the probe.
func (a *Allocator) sampleSpilled(t sim.VTime) {
	if a.probe != nil {
		a.probe.Counter(a.node.ID, "mem.spilled_bytes", t, float64(a.metrics.SpilledBytes))
	}
}

// label renders a run-stable partition label via the auditor.
func (a *Allocator) label(key dataset.PartKey) string {
	return a.audit.Label(int64(key.Dataset), key.Index)
}

// SpilledByPartition returns the cumulative bytes spilled per partition at
// this node, for spill attribution reports.
func (a *Allocator) SpilledByPartition() map[dataset.PartKey]sim.Bytes {
	out := make(map[dataset.PartKey]sim.Bytes, len(a.spilled))
	for k, v := range a.spilled {
		out[k] = v
	}
	return out
}

// Capacity returns the allocator's memory budget.
func (a *Allocator) Capacity() sim.Bytes { return a.capacity }

// Used returns the bytes currently resident in memory.
func (a *Allocator) Used() sim.Bytes { return a.used }

// Known reports whether the allocator tracks the partition at all
// (in memory or on disk).
func (a *Allocator) Known(key dataset.PartKey) bool {
	_, ok := a.entries[key]
	return ok
}

// Pin marks a partition so that it is evicted only when no unpinned victim
// exists; models Spark's explicit cache() designation (§6.1).
func (a *Allocator) Pin(key dataset.PartKey) {
	if e, ok := a.entries[key]; ok {
		e.pinned = true
	}
}

// Unpin clears a Pin, returning the partition to the evictable pool. The
// engine unpins a branch's partitions when `choose` discards the branch, so
// pinned reuse cannot leak memory-budget for the rest of the job; the
// leakcheck rule in internal/analysis enforces that every package calling
// Pin also calls Unpin.
func (a *Allocator) Unpin(key dataset.PartKey) {
	if e, ok := a.entries[key]; ok {
		e.pinned = false
	}
}

func (a *Allocator) touch(e *entry, t sim.VTime) {
	a.seq += 1e-9
	e.lastAccess = t + a.seq
}

// Put stores a freshly produced partition, evicting per policy if memory is
// exhausted, and returns the virtual time at which the write completes. A
// partition larger than the whole budget goes straight to disk. A partition
// the allocator already tracks is discarded first.
func (a *Allocator) Put(key dataset.PartKey, bytes sim.Bytes, t sim.VTime) sim.VTime {
	a.Discard(key)
	e := a.newEntry(key, bytes)
	if bytes > a.capacity {
		e.onDisk = true
		a.metrics.Evictions++
		a.metrics.SpilledBytes += bytes
		a.spilled[key] += bytes
		if a.audit != nil {
			// No policy choice here — the partition cannot fit at all — but
			// the audit log must still explain where the spill came from.
			a.audit.Decision(obs.Decision{
				T: t, Node: a.node.ID, Component: "memorymgr", Kind: "evict",
				Subject: a.label(key),
				Detail:  fmt.Sprintf("oversized: %d bytes exceed the %d-byte memory budget, written straight to disk", bytes, a.capacity),
			})
		}
		end := a.node.Disk(t, a.cfg.DiskWriteSec(bytes))
		a.sampleSpilled(end)
		return end
	}
	t = a.makeRoom(bytes, t)
	a.admit(e)
	a.touch(e, t)
	end := a.node.CPU(t, a.cfg.MemWriteSec(bytes))
	a.sampleResident(end)
	return end
}

// Access reads a partition as operator input, returning the completion time
// and whether the access was a memory hit. Disk misses reload the partition
// into memory (evicting per policy).
func (a *Allocator) Access(key dataset.PartKey, t sim.VTime) (end sim.VTime, hit bool, err error) {
	e, ok := a.entries[key]
	if !ok {
		return t, false, fmt.Errorf("memorymgr: access to unknown partition %s", key)
	}
	if e.inMemory {
		a.metrics.Hits++
		a.metrics.BytesFromMem += e.bytes
		a.touch(e, t)
		return a.node.CPU(t, a.cfg.MemReadSec(e.bytes)), true, nil
	}
	a.metrics.Misses++
	a.metrics.BytesFromDisk += e.bytes
	end = a.node.Disk(t, a.cfg.DiskReadSec(e.bytes))
	if e.bytes <= a.capacity {
		end = a.makeRoom(e.bytes, end)
		a.admit(e)
		a.sampleResident(end)
	}
	a.touch(e, end)
	return end, false, nil
}

// Discard drops a partition entirely (R3: datasets no longer needed are
// discarded as soon as possible). Discarding is free.
func (a *Allocator) Discard(key dataset.PartKey) {
	if e, ok := a.entries[key]; ok {
		a.release(e)
	}
}

// SetCheckpointing switches the allocator into durable-copy-aware mode: see
// the checkpointing field. The engine enables it for fault-injected runs.
func (a *Allocator) SetCheckpointing(on bool) { a.checkpointing = on }

// Checkpoint writes a durable on-disk copy of a resident partition without
// evicting it, charging the disk write as a background operation starting at
// t, and returns the write-completion time. It is a no-op (returning t) when
// the partition is unknown or already durable. The engine drives this for
// AMM's anticipatory checkpointing of consumed intermediates.
func (a *Allocator) Checkpoint(key dataset.PartKey, t sim.VTime) sim.VTime {
	e, ok := a.entries[key]
	if !ok || e.onDisk {
		return t
	}
	e.onDisk = true
	a.metrics.Checkpoints++
	a.metrics.CheckpointedBytes += e.bytes
	end := a.node.Disk(t, a.cfg.DiskWriteSec(e.bytes))
	if a.audit != nil {
		a.audit.Decision(obs.Decision{
			T: t, Node: a.node.ID, Component: "memorymgr", Kind: "checkpoint",
			Subject: a.label(key),
			Detail:  fmt.Sprintf("bytes=%d pref=%g", e.bytes, a.preference(e)),
		})
	}
	if a.probe != nil {
		a.probe.Counter(a.node.ID, "mem.checkpointed_bytes", end, float64(a.metrics.CheckpointedBytes))
	}
	return end
}

// Checkpointed reports whether the partition has a durable on-disk copy at
// this node.
func (a *Allocator) Checkpointed(key dataset.PartKey) bool {
	e, ok := a.entries[key]
	return ok && e.onDisk
}

// Lost identifies a partition whose only copy disappeared in a failure; the
// engine re-derives it by lineage.
type Lost struct {
	Key   dataset.PartKey
	Bytes sim.Bytes
}

// Crash models a process restart of the node (a non-permanent failure):
// every resident partition drops out of memory; partitions with a durable
// on-disk copy survive and will be re-read on next access, the rest are
// removed from the allocator and returned for lineage re-derivation.
func (a *Allocator) Crash() []Lost {
	for _, e := range a.resident {
		e.inMemory = false
	}
	clear(a.resident)
	a.resident, a.used = a.resident[:0], 0
	var lost []Lost
	for _, e := range a.entries {
		if !e.onDisk {
			lost = append(lost, Lost{Key: e.key, Bytes: e.bytes})
			a.release(e)
		}
	}
	sortLost(lost)
	return lost
}

// DropDurable demotes a partition whose durable copy turned out to be
// unreadable — the checkpoint store failed verification on load. The
// entry is removed from the allocator and returned as lost so the engine
// re-derives it by lineage. Reports false when the partition is
// untracked, still memory-resident (the durable copy is not
// load-bearing), or has no durable copy to distrust.
func (a *Allocator) DropDurable(key dataset.PartKey) (Lost, bool) {
	e, ok := a.entries[key]
	if !ok || e.inMemory || !e.onDisk {
		return Lost{}, false
	}
	l := Lost{Key: e.key, Bytes: e.bytes}
	a.release(e)
	return l, true
}

// SortLost orders failure reports by key for deterministic recovery. The
// engine merges allocator-reported losses with checkpoint-verification
// demotions and re-sorts before re-deriving.
func SortLost(ls []Lost) { sortLost(ls) }

// Evacuate empties the allocator for a permanent node loss, returning the
// partitions that have durable copies (re-creatable from the distributed
// file system on a surviving node via AdoptSpilled) separately from those
// lost outright (requiring lineage re-derivation).
func (a *Allocator) Evacuate() (checkpointed, lost []Lost) {
	for _, e := range a.entries {
		l := Lost{Key: e.key, Bytes: e.bytes}
		if e.onDisk {
			checkpointed = append(checkpointed, l)
		} else {
			lost = append(lost, l)
		}
	}
	// Nothing is tracked any more: the entries go with their chunks.
	clear(a.entries)
	a.resident, a.slab, a.free, a.used = nil, nil, nil, 0
	sortLost(checkpointed)
	sortLost(lost)
	return checkpointed, lost
}

// AdoptSpilled registers a partition at this node as an on-disk copy without
// charging any I/O; the engine charges the transfer that moved it. Used when
// rebalancing a dead node's checkpointed partitions onto survivors.
func (a *Allocator) AdoptSpilled(key dataset.PartKey, bytes sim.Bytes) {
	if _, ok := a.entries[key]; ok {
		return
	}
	a.newEntry(key, bytes).onDisk = true
}

// PinnedParts counts the partitions currently pinned at this node. At the
// end of a run it must be zero: every Pin is matched by an Unpin or the
// partition was discarded. The chaos harness audits this.
func (a *Allocator) PinnedParts() int {
	n := 0
	for _, e := range a.entries {
		if e.pinned {
			n++
		}
	}
	return n
}

// TrackedParts counts the partitions the allocator tracks (resident or on
// disk).
func (a *Allocator) TrackedParts() int { return len(a.entries) }

// Keys returns the tracked partition keys in deterministic order, for
// lineage audits that cross-check allocator contents against the engine's
// placement map.
func (a *Allocator) Keys() []dataset.PartKey {
	keys := make([]dataset.PartKey, 0, len(a.entries))
	for k := range a.entries {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareKeys)
	return keys
}

// CheckAccounting verifies the allocator's internal bookkeeping: the used
// counter must equal the sum of resident entry sizes, the resident list must
// hold exactly the entries in memory, each at the slot it records, and
// resident bytes must not exceed the capacity budget. Returns nil when the
// books balance.
// The chaos harness calls this after every run; it is the oracle that
// catches incremental-accounting drift (a Discard or eviction forgetting to
// release bytes) that the metrics counters alone cannot see.
func (a *Allocator) CheckAccounting() error {
	var resident sim.Bytes
	inMemory := 0
	for _, e := range a.entries {
		if e.inMemory {
			resident += e.bytes
			inMemory++
		}
	}
	if inMemory != len(a.resident) {
		return fmt.Errorf("memorymgr: node %d lists %d resident entries but tracks %d in memory", a.node.ID, len(a.resident), inMemory)
	}
	for i, e := range a.resident {
		if !e.inMemory || int(e.slot) != i || a.entries[e.key] != e {
			return fmt.Errorf("memorymgr: node %d resident list slot %d holds %s (in memory %v, slot %d)", a.node.ID, i, e.key, e.inMemory, e.slot)
		}
	}
	if resident != a.used {
		return fmt.Errorf("memorymgr: node %d used=%d but resident entries sum to %d", a.node.ID, a.used, resident)
	}
	if a.used > a.capacity {
		return fmt.Errorf("memorymgr: node %d resident %d bytes exceed the %d-byte budget", a.node.ID, a.used, a.capacity)
	}
	return nil
}

// sortLost orders failure reports by key for deterministic recovery.
func sortLost(ls []Lost) {
	slices.SortFunc(ls, func(x, y Lost) int { return compareKeys(x.Key, y.Key) })
}

// makeRoom evicts partitions per policy until bytes fit, charging disk
// writes for each spill, and returns the time at which room is available.
func (a *Allocator) makeRoom(bytes sim.Bytes, t sim.VTime) sim.VTime {
	for a.used+bytes > a.capacity {
		victim := a.pickVictim()
		if victim == nil {
			break // nothing evictable; allow transient over-commit
		}
		if a.audit != nil {
			a.audit.Decision(a.evictDecision(victim, t))
		}
		a.vacate(victim)
		a.metrics.Evictions++
		if a.checkpointing && victim.onDisk {
			// A durable copy already exists; dropping residency is free.
			continue
		}
		victim.onDisk = true
		a.metrics.SpilledBytes += victim.bytes
		a.spilled[victim.key] += victim.bytes
		t = a.node.Disk(t, a.cfg.DiskWriteSec(victim.bytes))
		a.sampleSpilled(t)
	}
	return t
}

// preference computes the Alg. 2 valuation pre(d) = acc(d)·δ(n,d)·α of an
// entry.
func (a *Allocator) preference(e *entry) float64 {
	acc := 0
	if a.acc != nil {
		acc = a.acc.FutureAccesses(e.key)
	}
	return float64(acc) * float64(e.bytes) * a.alpha
}

// compareKeys orders partition keys by dataset, then index.
func compareKeys(x, y dataset.PartKey) int {
	if c := cmp.Compare(x.Dataset, y.Dataset); c != 0 {
		return c
	}
	return cmp.Compare(x.Index, y.Index)
}

// pickVictim chooses the partition to evict: the first resident one in the
// order (pinned, pre(d), last access, key) — a pinned partition is spared
// while an unpinned one is resident, AMM takes the lowest preference
// acc(d)·δ(n,d)·α and breaks ties by LRU, LRU (every preference counting as
// equal) takes the oldest access, and the key settles what is left. The
// order is total, so one pass over the resident entries finds its minimum
// whatever order they are listed in.
func (a *Allocator) pickVictim() *entry {
	var best *entry
	var bestPref float64
	for _, e := range a.resident {
		var pref float64
		if a.policy == AMM {
			pref = a.preference(e)
		}
		if best == nil || evictedBefore(e, pref, best, bestPref) {
			best, bestPref = e, pref
		}
	}
	return best
}

// evictedBefore reports whether e, of preference pref, precedes best in the
// eviction order.
func evictedBefore(e *entry, pref float64, best *entry, bestPref float64) bool {
	switch {
	case e.pinned != best.pinned:
		return best.pinned
	case pref != bestPref:
		return pref < bestPref
	case e.lastAccess != best.lastAccess:
		return e.lastAccess < best.lastAccess
	}
	return compareKeys(e.key, best.key) < 0
}

// evictDecision describes one eviction for the audit log: the victim and
// every candidate it was chosen among — the resident partitions as pinned as
// the victim is — in key order, scored by the active policy (AMM preference
// or LRU last-access age). The list is audit data about the choice
// pickVictim made, built only for an auditor; it takes no part in the choice.
func (a *Allocator) evictDecision(victim *entry, t sim.VTime) obs.Decision {
	d := obs.Decision{
		T: t, Node: a.node.ID, Component: "memorymgr", Kind: "evict",
		Subject: a.label(victim.key),
		Detail:  fmt.Sprintf("policy=%s bytes=%d", a.policy, victim.bytes),
	}
	cands := make([]*entry, 0, len(a.resident))
	for _, e := range a.resident {
		if e.pinned == victim.pinned {
			cands = append(cands, e)
		}
	}
	slices.SortFunc(cands, func(x, y *entry) int { return compareKeys(x.key, y.key) })
	d.Candidates = make([]obs.Candidate, len(cands))
	for i, e := range cands {
		score := e.lastAccess.Seconds()
		if a.policy == AMM {
			score = a.preference(e)
		}
		d.Candidates[i] = obs.Candidate{Label: a.label(e.key), Score: score, Chosen: e == victim}
	}
	return d
}
