package memorymgr

import (
	"testing"
	"testing/quick"

	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/sim"
)

type accMap map[dataset.PartKey]int

func (m accMap) FutureAccesses(k dataset.PartKey) int { return m[k] }

func key(i int) dataset.PartKey { return dataset.PartKey{Dataset: dataset.ID(i), Index: 0} }

func newAlloc(capacity sim.Bytes, policy PolicyKind, acc AccessCounter) (*Allocator, *cluster.Node) {
	node := &cluster.Node{}
	return NewAllocator(node, cluster.DefaultConfig(), capacity, policy, acc), node
}

func TestCheckAccountingBalancedAndAuditHelpers(t *testing.T) {
	a, _ := newAlloc(2500, LRU, nil)
	a.Put(key(1), 1000, 0)
	a.Put(key(2), 1000, 1)
	a.Put(key(3), 1000, 2) // evicts key(1)
	a.Pin(key(2))
	if err := a.CheckAccounting(); err != nil {
		t.Fatalf("CheckAccounting on consistent state: %v", err)
	}
	if got := a.PinnedParts(); got != 1 {
		t.Errorf("PinnedParts = %d, want 1", got)
	}
	if got := a.TrackedParts(); got != 3 {
		t.Errorf("TrackedParts = %d, want 3", got)
	}
	keys := a.Keys()
	if len(keys) != 3 {
		t.Fatalf("Keys = %v, want 3 entries", keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i].Dataset < keys[i-1].Dataset {
			t.Fatalf("Keys not sorted: %v", keys)
		}
	}
	a.Unpin(key(2))
	a.Discard(key(2))
	if got := a.PinnedParts(); got != 0 {
		t.Errorf("PinnedParts after unpin+discard = %d, want 0", got)
	}
	if err := a.CheckAccounting(); err != nil {
		t.Fatalf("CheckAccounting after discard: %v", err)
	}
}

// TestCheckAccountingCatchesCorruption corrupts the allocator's internals
// the way a bookkeeping bug would — the test double behind the chaos
// harness's accounting oracle. Both drift modes must be detected: the used
// counter disagreeing with the resident entries, and resident bytes
// exceeding the capacity budget.
func TestCheckAccountingCatchesCorruption(t *testing.T) {
	a, _ := newAlloc(2500, LRU, nil)
	a.Put(key(1), 1000, 0)

	// Drift: a Discard that forgot to release its bytes.
	a.used += 500
	if err := a.CheckAccounting(); err == nil {
		t.Fatal("used/resident drift not detected")
	}
	a.used -= 500

	// Over-budget residency: an eviction that never happened.
	a.entries[key(1)].bytes = 3000
	a.used = 3000
	if err := a.CheckAccounting(); err == nil {
		t.Fatal("over-budget residency not detected")
	}
}

func TestPutAndAccessHit(t *testing.T) {
	a, _ := newAlloc(1<<20, LRU, nil)
	a.Put(key(1), 1000, 0)
	end, hit, err := a.Access(key(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("resident partition must hit")
	}
	if end <= 1 {
		t.Fatal("access must advance time")
	}
	m := a.Metrics()
	if m.Hits != 1 || m.Misses != 0 {
		t.Fatalf("hits/misses = %d/%d, want 1/0", m.Hits, m.Misses)
	}
}

func TestAccessUnknownErrors(t *testing.T) {
	a, _ := newAlloc(1<<20, LRU, nil)
	if _, _, err := a.Access(key(9), 0); err == nil {
		t.Fatal("unknown partition must error")
	}
}

func TestEvictionOnOverflowLRU(t *testing.T) {
	a, _ := newAlloc(2500, LRU, nil)
	a.Put(key(1), 1000, 0)
	a.Put(key(2), 1000, 1)
	a.Put(key(3), 1000, 2) // must evict key(1), the least recently used
	if a.Resident(key(1)) {
		t.Fatal("LRU should have evicted the oldest partition")
	}
	if !a.Resident(key(2)) || !a.Resident(key(3)) {
		t.Fatal("younger partitions should stay resident")
	}
	if a.Metrics().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", a.Metrics().Evictions)
	}
	// Re-access of the spilled partition is a miss that reloads it.
	_, hit, err := a.Access(key(1), 3)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("spilled partition must miss")
	}
	if !a.Resident(key(1)) {
		t.Fatal("miss must reload the partition into memory")
	}
}

func TestLRUTouchOnAccess(t *testing.T) {
	a, _ := newAlloc(2500, LRU, nil)
	a.Put(key(1), 1000, 0)
	a.Put(key(2), 1000, 1)
	a.Access(key(1), 2) // key(1) is now more recent than key(2)
	a.Put(key(3), 1000, 3)
	if a.Resident(key(2)) {
		t.Fatal("key(2) should have been evicted (least recently used)")
	}
	if !a.Resident(key(1)) {
		t.Fatal("recently touched key(1) should stay")
	}
}

func TestAMMEvictsLowestPreference(t *testing.T) {
	// AMM preference = acc(d) · size · α: the partition with the fewest
	// remaining reads (weighted by size) goes first, regardless of recency.
	acc := accMap{key(1): 5, key(2): 0, key(3): 2}
	a, _ := newAlloc(2500, AMM, acc)
	a.Put(key(1), 1000, 0) // oldest, but 5 future accesses
	a.Put(key(2), 1000, 1) // no future accesses -> evict first
	a.Put(key(3), 1000, 2)
	if a.Resident(key(2)) {
		t.Fatal("AMM should evict the partition with no future accesses")
	}
	if !a.Resident(key(1)) {
		t.Fatal("frequently needed partition must stay despite being oldest")
	}
}

func TestAMMWeighsSize(t *testing.T) {
	// Same access count: the bigger partition has higher preference
	// (costlier to reload), so the smaller one is evicted.
	acc := accMap{key(1): 2, key(2): 2}
	a, _ := newAlloc(3600, AMM, acc)
	a.Put(key(1), 2000, 0)
	a.Put(key(2), 500, 1)
	a.Put(key(3), 1500, 2)
	if a.Resident(key(2)) {
		t.Fatal("AMM should evict the cheaper-to-reload partition")
	}
	if !a.Resident(key(1)) {
		t.Fatal("expensive partition should stay")
	}
}

func TestOversizePartitionGoesToDisk(t *testing.T) {
	a, _ := newAlloc(1000, LRU, nil)
	a.Put(key(1), 5000, 0)
	if a.Resident(key(1)) {
		t.Fatal("partition larger than capacity must go to disk")
	}
	if !a.Known(key(1)) {
		t.Fatal("oversize partition must still be tracked")
	}
	_, hit, err := a.Access(key(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("oversize partition access must be a miss")
	}
}

func TestPinnedSparedWhileUnpinnedExists(t *testing.T) {
	a, _ := newAlloc(2500, LRU, nil)
	a.Put(key(1), 1000, 0)
	a.Pin(key(1))
	a.Put(key(2), 1000, 1)
	a.Put(key(3), 1000, 2)
	if !a.Resident(key(1)) {
		t.Fatal("pinned partition must be spared")
	}
	if a.Resident(key(2)) {
		t.Fatal("unpinned partition should have been evicted instead")
	}
}

func TestUnpinReturnsBytesToEvictable(t *testing.T) {
	a, _ := newAlloc(2500, LRU, nil)
	a.Put(key(1), 1000, 0)
	a.Pin(key(1))
	a.Put(key(2), 1000, 1)
	// Capacity forces an eviction: the pinned partition is spared, so the
	// newer one is the only candidate.
	a.Put(key(3), 1000, 2)
	if !a.Resident(key(1)) {
		t.Fatal("pinned partition must be spared while pinned")
	}
	a.Unpin(key(1))
	// After Unpin the 1000 pinned bytes are evictable again: the next Put
	// picks key(1) as the LRU victim (oldest access).
	a.Put(key(4), 1000, 3)
	if a.Resident(key(1)) {
		t.Fatal("unpinned partition must return to the evictable pool")
	}
	if !a.Resident(key(4)) {
		t.Fatal("new partition should occupy the reclaimed bytes")
	}
}

func TestDiscardFreesMemory(t *testing.T) {
	a, _ := newAlloc(2000, LRU, nil)
	a.Put(key(1), 1500, 0)
	a.Discard(key(1))
	if a.Used() != 0 {
		t.Fatalf("used = %d after discard, want 0", a.Used())
	}
	a.Put(key(2), 1500, 1)
	if a.Metrics().Evictions != 0 {
		t.Fatal("no eviction needed after discard")
	}
}

func TestFailNodeDropsResidency(t *testing.T) {
	a, _ := newAlloc(1<<20, AMM, accMap{})
	a.SetCheckpointing(true)
	a.Put(key(1), 1000, 0)
	a.Put(key(2), 2000, 1)
	a.Checkpoint(key(1), 2)
	a.Checkpoint(key(2), 2)
	if lost := a.Crash(); len(lost) != 0 {
		t.Fatalf("lost = %v, want none: both partitions are checkpointed", lost)
	}
	if a.Resident(key(1)) || a.Resident(key(2)) {
		t.Fatal("failure must drop all resident partitions")
	}
	if a.Used() != 0 {
		t.Fatalf("used = %d after failure, want 0", a.Used())
	}
	// Partitions are recoverable from their checkpoints.
	_, hit, err := a.Access(key(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("recovery access must read from disk")
	}
}

func TestCrashSplitsCheckpointedFromLost(t *testing.T) {
	a, n := newAlloc(1<<20, AMM, accMap{})
	a.SetCheckpointing(true)
	a.Put(key(1), 1000, 0)
	a.Put(key(2), 2000, 1)
	_, disk0, _ := n.FreeAt()
	end := a.Checkpoint(key(1), 2)
	if end <= 2 {
		t.Fatal("checkpoint must charge a disk write")
	}
	if _, disk1, _ := n.FreeAt(); disk1 <= disk0 {
		t.Fatal("checkpoint must occupy the disk timeline")
	}
	if a.Checkpoint(key(1), end) != end {
		t.Fatal("re-checkpointing a durable partition must be free")
	}
	if !a.Resident(key(1)) {
		t.Fatal("checkpointing must not evict")
	}
	lost := a.Crash()
	if len(lost) != 1 || lost[0].Key != key(2) {
		t.Fatalf("lost = %v, want only un-checkpointed key(2)", lost)
	}
	if !a.Known(key(1)) || a.Resident(key(1)) {
		t.Fatal("checkpointed partition must survive on disk, non-resident")
	}
	if a.Known(key(2)) {
		t.Fatal("lost partition must be forgotten")
	}
	if a.Used() != 0 {
		t.Fatalf("used = %d after crash, want 0", a.Used())
	}
	m := a.Metrics()
	if m.Checkpoints != 1 || m.CheckpointedBytes != 1000 {
		t.Fatalf("checkpoint metrics = %d/%d, want 1/1000", m.Checkpoints, m.CheckpointedBytes)
	}
}

func TestEvacuateAndAdoptSpilled(t *testing.T) {
	a, _ := newAlloc(1<<20, AMM, accMap{})
	a.SetCheckpointing(true)
	a.Put(key(1), 1000, 0)
	a.Put(key(2), 2000, 1)
	a.Checkpoint(key(2), 2)
	ckpt, lost := a.Evacuate()
	if len(ckpt) != 1 || ckpt[0].Key != key(2) {
		t.Fatalf("checkpointed = %v, want key(2)", ckpt)
	}
	if len(lost) != 1 || lost[0].Key != key(1) {
		t.Fatalf("lost = %v, want key(1)", lost)
	}
	if a.Known(key(1)) || a.Known(key(2)) || a.Used() != 0 {
		t.Fatal("evacuated allocator must be empty")
	}

	survivor, _ := newAlloc(1<<20, AMM, accMap{})
	survivor.AdoptSpilled(ckpt[0].Key, ckpt[0].Bytes)
	if !survivor.Known(key(2)) || survivor.Resident(key(2)) {
		t.Fatal("adopted partition must be known on-disk, non-resident")
	}
	_, hit, err := survivor.Access(key(2), 3)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first access of an adopted partition must be a disk read")
	}
}

func TestCheckpointedVictimSpillsForFree(t *testing.T) {
	a, n := newAlloc(2500, LRU, nil)
	a.SetCheckpointing(true)
	a.Put(key(1), 1000, 0)
	a.Checkpoint(key(1), 1)
	_, diskBefore, _ := n.FreeAt()
	spilled := a.Metrics().SpilledBytes
	a.Put(key(2), 1000, 2)
	a.Put(key(3), 1000, 3) // evicts key(1), which is already durable
	if a.Resident(key(1)) {
		t.Fatal("key(1) should have been evicted")
	}
	if _, diskAfter, _ := n.FreeAt(); diskAfter != diskBefore {
		t.Fatal("evicting a checkpointed partition must not re-write it")
	}
	if a.Metrics().SpilledBytes != spilled {
		t.Fatal("no spill bytes for a durable victim")
	}
	if a.Metrics().Evictions == 0 {
		t.Fatal("the eviction itself must still be counted")
	}
}

func TestSpillWithoutCheckpointingUnchanged(t *testing.T) {
	a, n := newAlloc(2500, LRU, nil)
	a.Put(key(1), 1000, 0)
	a.Put(key(2), 1000, 1)
	_, diskBefore, _ := n.FreeAt()
	a.Put(key(3), 1000, 2)
	if _, diskAfter, _ := n.FreeAt(); diskAfter <= diskBefore {
		t.Fatal("without checkpointing mode every spill charges a disk write")
	}
}

func TestHitRatio(t *testing.T) {
	var m Metrics
	if m.HitRatio() != 1 {
		t.Fatal("empty metrics hit ratio must be 1")
	}
	m.Hits, m.Misses = 3, 1
	if m.HitRatio() != 0.75 {
		t.Fatalf("hit ratio = %v, want 0.75", m.HitRatio())
	}
}

func TestMetricsMerge(t *testing.T) {
	a := Metrics{Hits: 1, Misses: 2, BytesFromMem: 10, BytesFromDisk: 20, Evictions: 1, SpilledBytes: 5, PeakResidentBytes: 100}
	b := Metrics{Hits: 3, Misses: 4, PeakResidentBytes: 50}
	a.Merge(&b)
	if a.Hits != 4 || a.Misses != 6 || a.PeakResidentBytes != 100 {
		t.Fatalf("merge result wrong: %+v", a)
	}
}

// Property: used bytes never exceed capacity after any Put sequence (except
// transient oversize partitions, which bypass memory entirely).
func TestCapacityInvariantProperty(t *testing.T) {
	const capacity = 10000
	f := func(sizes []uint16) bool {
		a, _ := newAlloc(capacity, LRU, nil)
		for i, s := range sizes {
			size := sim.Bytes(s)%4000 + 1
			a.Put(key(i), size, sim.VTime(i))
			if a.Used() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every access after a Put either hits in memory or reloads; the
// partition is always known afterwards, and hit+miss counts equal accesses.
func TestAccessAccountingProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		a, _ := newAlloc(5000, AMM, accMap{})
		puts := 0
		var accesses int64
		for i, op := range ops {
			if op%3 == 0 || puts == 0 {
				a.Put(key(puts), sim.Bytes(op)%2000+1, sim.VTime(i))
				puts++
				continue
			}
			target := key(int(op) % puts)
			if _, _, err := a.Access(target, sim.VTime(i)); err != nil {
				return false
			}
			accesses++
		}
		m := a.Metrics()
		return m.Hits+m.Misses == accesses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDropDurableDemotesOnlyDiskOnlyCopies(t *testing.T) {
	a, _ := newAlloc(2500, LRU, nil)
	a.SetCheckpointing(true)
	a.Put(key(1), 1000, 0)
	a.Put(key(2), 1000, 1)
	a.Checkpoint(key(1), 2)
	a.Checkpoint(key(2), 3)
	// Resident partitions keep their memory copy: the durable one is not
	// load-bearing, so a corrupt checkpoint demotes nothing.
	if _, ok := a.DropDurable(key(1)); ok {
		t.Fatal("DropDurable demoted a memory-resident partition")
	}
	// After a crash only durable copies survive; a corrupt one must come
	// back as lost.
	if lost := a.Crash(); len(lost) != 0 {
		t.Fatalf("Crash lost %v, want none (all checkpointed)", lost)
	}
	l, ok := a.DropDurable(key(1))
	if !ok || l.Key != key(1) || l.Bytes != 1000 {
		t.Fatalf("DropDurable = %+v, %v", l, ok)
	}
	if a.Known(key(1)) {
		t.Fatal("demoted partition still tracked")
	}
	if _, ok := a.DropDurable(key(1)); ok {
		t.Fatal("DropDurable demoted an untracked partition")
	}
	if !a.Checkpointed(key(2)) {
		t.Fatal("unrelated durable copy disturbed")
	}
	if err := a.CheckAccounting(); err != nil {
		t.Fatalf("CheckAccounting: %v", err)
	}
}
