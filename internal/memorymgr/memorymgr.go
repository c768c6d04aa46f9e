// Package memorymgr implements the worker-side memory allocator of §5 and
// the eviction policies of §4.3: the least-recently-used baseline and
// anticipatory memory management (AMM, Alg. 2). An allocator manages one
// node's dataset memory for one job, tracks residency (in memory vs. spilled
// to disk), charges virtual I/O time on the node's resource timelines, and
// records the memory-hit-ratio statistics reported in §6.2. Put returns a
// handle (Ref) to the entry it makes for a partition, and every later call
// about the partition takes the handle: an entry is an index into the
// allocator's table, not a key to look up. Entries keep their partition key,
// which orders eviction ties, Keys and Lost lists.
package memorymgr

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
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

// Ref is a handle to the entry the allocator keeps for a partition, as Put
// and AdoptSpilled return it: the entry's slot and the slot's generation at
// the time. Releasing the entry moves the generation on, so a handle kept past
// a Discard, a crash that lost the partition or a DropDurable is stale: every
// call refuses it as it would an unknown partition, even once the slot holds
// another partition. The zero Ref is never valid.
type Ref struct {
	slot, gen uint32
}

// entry is the allocator's record of one partition, at the slot its Ref
// names. gen is odd while the entry is live and even once it is released and
// its slot waits on the free list.
type entry struct {
	key        dataset.PartKey
	bytes      sim.Bytes
	lastAccess sim.VTime
	slot, gen  uint32
	// res is the entry's index in Allocator.resident while inMemory.
	res      int32
	inMemory bool
	pinned   bool
	// onDisk records a durable copy on this node's disk, written either by a
	// spill or by an anticipatory checkpoint. A crashed node re-reads onDisk
	// partitions; the rest are lost and must be re-derived by lineage.
	onDisk bool
}

func (e *entry) live() bool { return e.gen&1 == 1 }

// Allocator manages the dataset memory of one worker node for one job.
type Allocator struct {
	node     *cluster.Node
	cfg      cluster.Config
	capacity sim.Bytes
	policy   PolicyKind
	acc      AccessCounter
	alpha    float64

	used sim.Bytes
	// chunks hold every entry, live or released, entryChunk to a chunk:
	// slot s is entry s%entryChunk of chunk s/entryChunk, and slots counts
	// the slots handed out. An entry never moves. free lists the released
	// slots, which the next partitions take. The chunks grow to the most
	// partitions the node ever tracks at once and live as long as the
	// allocator.
	chunks []*[entryChunk]entry
	slots  uint32
	free   []uint32
	// chunk0 holds the first chunk pointers, so that a node tracking at
	// most 128 partitions at once allocates no list of chunks.
	chunk0 [4]*[entryChunk]entry
	// resident lists the entries in memory, in no particular order (an
	// entry leaving takes the last one's place): what a victim is chosen
	// among, without a walk over the spilled ones.
	resident []*entry
	// spills logs every spill, for the spill report: a spill of the dataset
	// the last record names adds to that record, any other appends one.
	spills  []spill
	metrics Metrics
	seq     sim.VTime // tie-breaking sequence for identical timestamps

	// checkpointing enables durable-copy awareness: spilling a partition
	// that already has an on-disk copy skips the redundant write, and the
	// engine may call Checkpoint to write copies anticipatorily. Off by
	// default so fault-free runs charge exactly the seed's costs.
	checkpointing bool

	// probe, when non-nil, receives residency counter samples; audit, the
	// probe's audit half when it has one, evict/checkpoint decisions with
	// their Alg. 2 valuations. labels holds, by slot, the audit label of the
	// entry there, built the first time a decision names it (an eviction
	// lists every resident partition); cands and candList are the scratch an
	// eviction decision is built in. All three stay empty without an auditor.
	probe    obs.Probe
	audit    obs.Auditor
	labels   []string
	cands    []*entry
	candList []obs.Candidate
}

// NewAllocator creates an allocator with the given memory capacity on node.
// acc may be nil when the policy is LRU.
func NewAllocator(node *cluster.Node, cfg cluster.Config, capacity sim.Bytes, policy PolicyKind, acc AccessCounter) *Allocator {
	a := &Allocator{
		node:     node,
		cfg:      cfg,
		capacity: capacity,
		policy:   policy,
		acc:      acc,
		alpha:    cfg.Alpha(),
	}
	a.chunks = a.chunk0[:0]
	return a
}

// entryChunk is the number of entries allocated at a time.
const entryChunk = 32

// at returns the entry in a slot handed out.
func (a *Allocator) at(slot uint32) *entry {
	return &a.chunks[slot/entryChunk][slot%entryChunk]
}

// newEntry tracks a partition under key, in a released slot if there is one,
// and returns its handle.
func (a *Allocator) newEntry(key dataset.PartKey, bytes sim.Bytes) (Ref, *entry) {
	var slot uint32
	if n := len(a.free); n > 0 {
		slot, a.free = a.free[n-1], a.free[:n-1]
	} else {
		if a.slots%entryChunk == 0 {
			a.chunks = append(a.chunks, new([entryChunk]entry))
		}
		slot = a.slots
		a.slots++
	}
	e := a.at(slot)
	*e = entry{key: key, bytes: bytes, slot: slot, gen: e.gen + 1}
	if int(slot) < len(a.labels) {
		a.labels[slot] = ""
	}
	return Ref{slot: slot, gen: e.gen}, e
}

// lookup returns the live entry ref names, or nil when the handle is stale or
// was never issued by this allocator.
func (a *Allocator) lookup(ref Ref) *entry {
	if ref.slot >= a.slots {
		return nil
	}
	if e := a.at(ref.slot); e.gen == ref.gen && e.live() {
		return e
	}
	return nil
}

// release stops tracking e and frees its slot.
func (a *Allocator) release(e *entry) {
	if e.inMemory {
		a.vacate(e)
	}
	e.gen++
	a.free = append(a.free, e.slot)
}

// admit makes e resident.
func (a *Allocator) admit(e *entry) {
	e.inMemory, e.res = true, int32(len(a.resident))
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
	a.resident[e.res], moved.res = moved, e.res
	a.resident[last] = nil
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

// label returns the run-stable label of e, rendered by the auditor the
// first time. The engine registers a dataset with the auditor before it
// stores a partition of it, so the label does not change while the entry
// lives.
func (a *Allocator) label(e *entry) string {
	if n := len(a.chunks) * entryChunk; len(a.labels) < n {
		a.labels = slices.Grow(a.labels, n-len(a.labels))[:n]
	}
	if a.labels[e.slot] == "" {
		a.labels[e.slot] = a.audit.Label(int64(e.key.Dataset), e.key.Index)
	}
	return a.labels[e.slot]
}

// spill is one record of the spill log: bytes spilled of one dataset.
type spill struct {
	dataset dataset.ID
	bytes   sim.Bytes
}

// logSpill records that bytes of dataset d were spilled.
func (a *Allocator) logSpill(d dataset.ID, bytes sim.Bytes) {
	if n := len(a.spills); n > 0 && a.spills[n-1].dataset == d {
		a.spills[n-1].bytes += bytes
		return
	}
	a.spills = append(a.spills, spill{d, bytes})
}

// SpilledByDataset returns the cumulative bytes spilled per dataset at this
// node, for spill attribution reports.
func (a *Allocator) SpilledByDataset() map[dataset.ID]sim.Bytes {
	out := make(map[dataset.ID]sim.Bytes)
	for _, s := range a.spills {
		out[s.dataset] += s.bytes
	}
	return out
}

// Capacity returns the allocator's memory budget.
func (a *Allocator) Capacity() sim.Bytes { return a.capacity }

// Used returns the bytes currently resident in memory.
func (a *Allocator) Used() sim.Bytes { return a.used }

// Known reports whether ref names a partition the allocator tracks (in
// memory or on disk).
func (a *Allocator) Known(ref Ref) bool { return a.lookup(ref) != nil }

// Pin marks a partition so that it is evicted only when no unpinned victim
// exists; models Spark's explicit cache() designation (§6.1).
func (a *Allocator) Pin(ref Ref) {
	if e := a.lookup(ref); e != nil {
		e.pinned = true
	}
}

// Unpin clears a Pin, returning the partition to the evictable pool. The
// engine unpins a branch's partitions when `choose` discards the branch, so
// pinned reuse cannot leak memory-budget for the rest of the job; the
// leakcheck rule in internal/analysis enforces that every package calling
// Pin also calls Unpin.
func (a *Allocator) Unpin(ref Ref) {
	if e := a.lookup(ref); e != nil {
		e.pinned = false
	}
}

func (a *Allocator) touch(e *entry, t sim.VTime) {
	a.seq += 1e-9
	e.lastAccess = t + a.seq
}

// Put stores a freshly produced partition, evicting per policy if memory is
// exhausted, and returns the handle every later call about the partition
// takes and the virtual time at which the write completes. A partition larger
// than the whole budget goes straight to disk. Put does not look for an entry
// the key already has: a caller storing a partition again discards its old
// handle first.
func (a *Allocator) Put(key dataset.PartKey, bytes sim.Bytes, t sim.VTime) (Ref, sim.VTime) {
	ref, e := a.newEntry(key, bytes)
	if bytes > a.capacity {
		e.onDisk = true
		a.metrics.Evictions++
		a.metrics.SpilledBytes += bytes
		a.logSpill(key.Dataset, bytes)
		if a.audit != nil {
			// No policy choice here — the partition cannot fit at all — but
			// the audit log must still explain where the spill came from.
			a.audit.Decision(obs.Decision{
				T: t, Node: a.node.ID, Component: "memorymgr", Kind: "evict",
				Subject: a.label(e),
				Detail:  fmt.Sprintf("oversized: %d bytes exceed the %d-byte memory budget, written straight to disk", bytes, a.capacity),
			})
		}
		end := a.node.Disk(t, a.cfg.DiskWriteSec(bytes))
		a.sampleSpilled(end)
		return ref, end
	}
	t = a.makeRoom(bytes, t)
	a.admit(e)
	a.touch(e, t)
	end := a.node.CPU(t, a.cfg.MemWriteSec(bytes))
	a.sampleResident(end)
	return ref, end
}

// Access reads a partition as operator input, returning the completion time
// and whether the access was a memory hit. Disk misses reload the partition
// into memory (evicting per policy).
func (a *Allocator) Access(ref Ref, t sim.VTime) (end sim.VTime, hit bool, err error) {
	e := a.lookup(ref)
	if e == nil {
		// A stale handle's slot holds its old key or a later partition's:
		// the slot is named, not the key.
		return t, false, fmt.Errorf("memorymgr: access to unknown partition (slot %d, generation %d)", ref.slot, ref.gen)
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
// discarded as soon as possible). Discarding is free; a stale handle is
// ignored.
func (a *Allocator) Discard(ref Ref) {
	if e := a.lookup(ref); e != nil {
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
func (a *Allocator) Checkpoint(ref Ref, t sim.VTime) sim.VTime {
	e := a.lookup(ref)
	if e == nil || e.onDisk {
		return t
	}
	e.onDisk = true
	a.metrics.Checkpoints++
	a.metrics.CheckpointedBytes += e.bytes
	end := a.node.Disk(t, a.cfg.DiskWriteSec(e.bytes))
	if a.audit != nil {
		a.audit.Decision(obs.Decision{
			T: t, Node: a.node.ID, Component: "memorymgr", Kind: "checkpoint",
			Subject: a.label(e),
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
func (a *Allocator) Checkpointed(ref Ref) bool {
	e := a.lookup(ref)
	return e != nil && e.onDisk
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
	for slot := range a.slots {
		if e := a.at(slot); e.live() && !e.onDisk {
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
func (a *Allocator) DropDurable(ref Ref) (Lost, bool) {
	e := a.lookup(ref)
	if e == nil || e.inMemory || !e.onDisk {
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
// lost outright (requiring lineage re-derivation). Every handle the
// allocator issued is stale afterwards.
func (a *Allocator) Evacuate() (checkpointed, lost []Lost) {
	for slot := range a.slots {
		e := a.at(slot)
		if !e.live() {
			continue
		}
		l := Lost{Key: e.key, Bytes: e.bytes}
		if e.onDisk {
			checkpointed = append(checkpointed, l)
		} else {
			lost = append(lost, l)
		}
		a.release(e)
	}
	sortLost(checkpointed)
	sortLost(lost)
	return checkpointed, lost
}

// AdoptSpilled registers a partition at this node as an on-disk copy without
// charging any I/O, and returns its handle; the engine charges the transfer
// that moved it. Used when rebalancing a dead node's checkpointed partitions
// onto survivors, which do not track them yet.
func (a *Allocator) AdoptSpilled(key dataset.PartKey, bytes sim.Bytes) Ref {
	ref, e := a.newEntry(key, bytes)
	e.onDisk = true
	return ref
}

// PinnedParts counts the partitions currently pinned at this node. At the
// end of a run it must be zero: every Pin is matched by an Unpin or the
// partition was discarded. The chaos harness audits this.
func (a *Allocator) PinnedParts() int {
	n := 0
	for slot := range a.slots {
		if e := a.at(slot); e.live() && e.pinned {
			n++
		}
	}
	return n
}

// TrackedParts counts the partitions the allocator tracks (resident or on
// disk).
func (a *Allocator) TrackedParts() int { return int(a.slots) - len(a.free) }

// Keys returns the tracked partition keys in deterministic order, for
// lineage audits that cross-check allocator contents against the engine's
// placement map.
func (a *Allocator) Keys() []dataset.PartKey {
	keys := make([]dataset.PartKey, 0, a.TrackedParts())
	for slot := range a.slots {
		if e := a.at(slot); e.live() {
			keys = append(keys, e.key)
		}
	}
	slices.SortFunc(keys, compareKeys)
	return keys
}

// CheckAccounting verifies the allocator's internal bookkeeping: the used
// counter must equal the sum of resident entry sizes, the resident list must
// hold exactly the live entries in memory, each at the index it records, the
// live entries and the free slots must add up to the table, and resident
// bytes must not exceed the capacity budget. Returns nil when the books
// balance.
// The chaos harness calls this after every run; it is the oracle that
// catches incremental-accounting drift (a Discard or eviction forgetting to
// release bytes) that the metrics counters alone cannot see.
func (a *Allocator) CheckAccounting() error {
	var resident sim.Bytes
	inMemory, live := 0, 0
	for slot := range a.slots {
		e := a.at(slot)
		if !e.live() {
			continue
		}
		live++
		if e.inMemory {
			resident += e.bytes
			inMemory++
		}
	}
	if live+len(a.free) != int(a.slots) {
		return fmt.Errorf("memorymgr: node %d lists %d free slots, but %d of its %d slots are live", a.node.ID, len(a.free), live, a.slots)
	}
	if inMemory != len(a.resident) {
		return fmt.Errorf("memorymgr: node %d lists %d resident entries but tracks %d in memory", a.node.ID, len(a.resident), inMemory)
	}
	for i, e := range a.resident {
		if !e.live() || !e.inMemory || int(e.res) != i || a.at(e.slot) != e {
			return fmt.Errorf("memorymgr: node %d resident list slot %d holds %s (in memory %v, slot %d)", a.node.ID, i, e.key, e.inMemory, e.res)
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
		a.logSpill(victim.key.Dataset, victim.bytes)
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

// evictDetail renders "policy=<policy> bytes=<bytes>" in one allocation.
func (a *Allocator) evictDetail(bytes sim.Bytes) string {
	var buf [48]byte
	b := append(append(append(buf[:0], "policy="...), a.policy.String()...), " bytes="...)
	return string(strconv.AppendInt(b, int64(bytes), 10))
}

// evictDecision describes one eviction for the audit log: the victim and
// every candidate it was chosen among — the resident partitions as pinned as
// the victim is — in key order, scored by the active policy (AMM preference
// or LRU last-access age). The list is audit data about the choice
// pickVictim made, built only for an auditor; it takes no part in the choice.
// The auditor copies the candidates, so every decision is built in the same
// scratch.
func (a *Allocator) evictDecision(victim *entry, t sim.VTime) obs.Decision {
	d := obs.Decision{
		T: t, Node: a.node.ID, Component: "memorymgr", Kind: "evict",
		Subject: a.label(victim),
		Detail:  a.evictDetail(victim.bytes),
	}
	a.cands = a.cands[:0]
	for _, e := range a.resident {
		if e.pinned == victim.pinned {
			a.cands = append(a.cands, e)
		}
	}
	slices.SortFunc(a.cands, func(x, y *entry) int { return compareKeys(x.key, y.key) })
	a.candList = a.candList[:0]
	for _, e := range a.cands {
		score := e.lastAccess.Seconds()
		if a.policy == AMM {
			score = a.preference(e)
		}
		a.candList = append(a.candList, obs.Candidate{Label: a.label(e), Score: score, Chosen: e == victim})
	}
	clear(a.cands)
	d.Candidates = a.candList
	return d
}
