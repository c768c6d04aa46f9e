package memorymgr

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/sim"
)

// This file keeps the allocator as it was when it found its entries by key:
// one map from partition key to entry, entries cut from chunks and handed back
// to a free list, a resident list of entry pointers. TestAllocatorMatchesKeyedReference
// drives it and the real Allocator with the same seeded operations and
// compares what each returns and holds after every one. The telemetry half is
// left out: TestAlg2Reference compares decisions and counter samples.

type keyedEntry struct {
	key        dataset.PartKey
	bytes      sim.Bytes
	lastAccess sim.VTime
	slot       int32
	inMemory   bool
	pinned     bool
	onDisk     bool
}

type keyedAlloc struct {
	node          *cluster.Node
	cfg           cluster.Config
	capacity      sim.Bytes
	policy        PolicyKind
	acc           AccessCounter
	alpha         float64
	used          sim.Bytes
	entries       map[dataset.PartKey]*keyedEntry
	resident      []*keyedEntry
	spilled       map[dataset.PartKey]sim.Bytes
	metrics       Metrics
	seq           sim.VTime
	checkpointing bool
}

func newKeyedAlloc(node *cluster.Node, cfg cluster.Config, capacity sim.Bytes, policy PolicyKind, acc AccessCounter) *keyedAlloc {
	return &keyedAlloc{
		node: node, cfg: cfg, capacity: capacity, policy: policy, acc: acc, alpha: cfg.Alpha(),
		entries: make(map[dataset.PartKey]*keyedEntry),
		spilled: make(map[dataset.PartKey]sim.Bytes),
	}
}

func (a *keyedAlloc) newEntry(key dataset.PartKey, bytes sim.Bytes) *keyedEntry {
	e := &keyedEntry{key: key, bytes: bytes}
	a.entries[key] = e
	return e
}

func (a *keyedAlloc) release(e *keyedEntry) {
	if e.inMemory {
		a.vacate(e)
	}
	delete(a.entries, e.key)
}

func (a *keyedAlloc) admit(e *keyedEntry) {
	e.inMemory, e.slot = true, int32(len(a.resident))
	a.resident = append(a.resident, e)
	a.used += e.bytes
	if a.used > a.metrics.PeakResidentBytes {
		a.metrics.PeakResidentBytes = a.used
	}
}

func (a *keyedAlloc) vacate(e *keyedEntry) {
	last := len(a.resident) - 1
	moved := a.resident[last]
	a.resident[e.slot], moved.slot = moved, e.slot
	a.resident = a.resident[:last]
	e.inMemory = false
	a.used -= e.bytes
}

func (a *keyedAlloc) touch(e *keyedEntry, t sim.VTime) {
	a.seq += 1e-9
	e.lastAccess = t + a.seq
}

func (a *keyedAlloc) Put(key dataset.PartKey, bytes sim.Bytes, t sim.VTime) sim.VTime {
	a.Discard(key)
	e := a.newEntry(key, bytes)
	if bytes > a.capacity {
		e.onDisk = true
		a.metrics.Evictions++
		a.metrics.SpilledBytes += bytes
		a.spilled[key] += bytes
		return a.node.Disk(t, a.cfg.DiskWriteSec(bytes))
	}
	t = a.makeRoom(bytes, t)
	a.admit(e)
	a.touch(e, t)
	return a.node.CPU(t, a.cfg.MemWriteSec(bytes))
}

func (a *keyedAlloc) Access(key dataset.PartKey, t sim.VTime) (end sim.VTime, hit bool, err error) {
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
	}
	a.touch(e, end)
	return end, false, nil
}

func (a *keyedAlloc) Discard(key dataset.PartKey) {
	if e, ok := a.entries[key]; ok {
		a.release(e)
	}
}

func (a *keyedAlloc) Pin(key dataset.PartKey) {
	if e, ok := a.entries[key]; ok {
		e.pinned = true
	}
}

func (a *keyedAlloc) Unpin(key dataset.PartKey) {
	if e, ok := a.entries[key]; ok {
		e.pinned = false
	}
}

func (a *keyedAlloc) Checkpoint(key dataset.PartKey, t sim.VTime) sim.VTime {
	e, ok := a.entries[key]
	if !ok || e.onDisk {
		return t
	}
	e.onDisk = true
	a.metrics.Checkpoints++
	a.metrics.CheckpointedBytes += e.bytes
	return a.node.Disk(t, a.cfg.DiskWriteSec(e.bytes))
}

func (a *keyedAlloc) Checkpointed(key dataset.PartKey) bool {
	e, ok := a.entries[key]
	return ok && e.onDisk
}

func (a *keyedAlloc) Known(key dataset.PartKey) bool {
	_, ok := a.entries[key]
	return ok
}

func (a *keyedAlloc) Crash() []Lost {
	for _, e := range a.resident {
		e.inMemory = false
	}
	a.resident, a.used = nil, 0
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

func (a *keyedAlloc) DropDurable(key dataset.PartKey) (Lost, bool) {
	e, ok := a.entries[key]
	if !ok || e.inMemory || !e.onDisk {
		return Lost{}, false
	}
	a.release(e)
	return Lost{Key: e.key, Bytes: e.bytes}, true
}

func (a *keyedAlloc) Evacuate() (checkpointed, lost []Lost) {
	for _, e := range a.entries {
		l := Lost{Key: e.key, Bytes: e.bytes}
		if e.onDisk {
			checkpointed = append(checkpointed, l)
		} else {
			lost = append(lost, l)
		}
	}
	clear(a.entries)
	a.resident, a.used = nil, 0
	sortLost(checkpointed)
	sortLost(lost)
	return checkpointed, lost
}

func (a *keyedAlloc) AdoptSpilled(key dataset.PartKey, bytes sim.Bytes) {
	if _, ok := a.entries[key]; ok {
		return
	}
	a.newEntry(key, bytes).onDisk = true
}

func (a *keyedAlloc) PinnedParts() int {
	n := 0
	for _, e := range a.entries {
		if e.pinned {
			n++
		}
	}
	return n
}

func (a *keyedAlloc) Keys() []dataset.PartKey {
	keys := make([]dataset.PartKey, 0, len(a.entries))
	for k := range a.entries {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareKeys)
	return keys
}

func (a *keyedAlloc) CheckAccounting() error {
	var resident sim.Bytes
	for i, e := range a.resident {
		if !e.inMemory || int(e.slot) != i || a.entries[e.key] != e {
			return fmt.Errorf("resident slot %d holds %s", i, e.key)
		}
		resident += e.bytes
	}
	if resident != a.used || a.used > a.capacity {
		return fmt.Errorf("used %d, resident %d, capacity %d", a.used, resident, a.capacity)
	}
	return nil
}

func (a *keyedAlloc) makeRoom(bytes sim.Bytes, t sim.VTime) sim.VTime {
	for a.used+bytes > a.capacity {
		victim := a.pickVictim()
		if victim == nil {
			break
		}
		a.vacate(victim)
		a.metrics.Evictions++
		if a.checkpointing && victim.onDisk {
			continue
		}
		victim.onDisk = true
		a.metrics.SpilledBytes += victim.bytes
		a.spilled[victim.key] += victim.bytes
		t = a.node.Disk(t, a.cfg.DiskWriteSec(victim.bytes))
	}
	return t
}

func (a *keyedAlloc) preference(e *keyedEntry) float64 {
	acc := 0
	if a.acc != nil {
		acc = a.acc.FutureAccesses(e.key)
	}
	return float64(acc) * float64(e.bytes) * a.alpha
}

func (a *keyedAlloc) pickVictim() *keyedEntry {
	var best *keyedEntry
	var bestPref float64
	for _, e := range a.resident {
		var pref float64
		if a.policy == AMM {
			pref = a.preference(e)
		}
		if best == nil || a.before(e, pref, best, bestPref) {
			best, bestPref = e, pref
		}
	}
	return best
}

func (a *keyedAlloc) before(e *keyedEntry, pref float64, best *keyedEntry, bestPref float64) bool {
	switch {
	case e.pinned != best.pinned:
		return best.pinned
	case pref != bestPref:
		return pref < bestPref
	case e.lastAccess != best.lastAccess:
		return e.lastAccess < best.lastAccess
	}
	return cmp.Or(cmp.Compare(e.key.Dataset, best.key.Dataset), cmp.Compare(e.key.Index, best.key.Index)) < 0
}

// keyedTrial drives the real allocator and the keyed reference through one
// seeded sequence over datasets×parts partitions. The real allocator is
// reached through the calls below only, which keep the handle of every
// partition stored. A handle whose partition was discarded, lost or
// evacuated stays in the map, stale: the sequence keeps calling through it,
// and the real allocator must refuse it as the reference refuses the key.
type keyedTrial struct {
	t         *testing.T
	seed      int64
	real      *Allocator
	ref       *keyedAlloc
	refs      map[dataset.PartKey]Ref
	victims   int
	adoptions int
	losses    int
}

func (tr *keyedTrial) put(k dataset.PartKey, b sim.Bytes, t sim.VTime) sim.VTime {
	tr.real.Discard(tr.refs[k]) // a partition stored again replaces its entry
	var end sim.VTime
	tr.refs[k], end = tr.real.Put(k, b, t)
	return end
}

func (tr *keyedTrial) access(k dataset.PartKey, t sim.VTime) (sim.VTime, bool, error) {
	return tr.real.Access(tr.refs[k], t)
}

func (tr *keyedTrial) discard(k dataset.PartKey)           { tr.real.Discard(tr.refs[k]) }
func (tr *keyedTrial) pin(k dataset.PartKey)               { tr.real.Pin(tr.refs[k]) }
func (tr *keyedTrial) unpin(k dataset.PartKey)             { tr.real.Unpin(tr.refs[k]) }
func (tr *keyedTrial) known(k dataset.PartKey) bool        { return tr.real.Known(tr.refs[k]) }
func (tr *keyedTrial) checkpointed(k dataset.PartKey) bool { return tr.real.Checkpointed(tr.refs[k]) }
func (tr *keyedTrial) checkpoint(k dataset.PartKey, t sim.VTime) sim.VTime {
	return tr.real.Checkpoint(tr.refs[k], t)
}
func (tr *keyedTrial) dropDurable(k dataset.PartKey) (Lost, bool) {
	return tr.real.DropDurable(tr.refs[k])
}

// adoptSpilled adopts a partition the allocator does not track, as the
// engine does (AdoptSpilled keeps a tracked partition's entry, in the
// reference).
func (tr *keyedTrial) adoptSpilled(k dataset.PartKey, b sim.Bytes) {
	if !tr.known(k) {
		tr.refs[k] = tr.real.AdoptSpilled(k, b)
	}
}
func (tr *keyedTrial) resident(k dataset.PartKey) bool { return inMemory(tr.real, tr.refs[k]) }

func (tr *keyedTrial) run(policy PolicyKind, ops int) {
	t := tr.t
	rng := rand.New(rand.NewSource(tr.seed))
	const capacity = 12_000
	cfg := cluster.DefaultConfig()
	acc := accMap{}
	tr.real = NewAllocator(&cluster.Node{}, cfg, capacity, policy, acc)
	tr.ref = newKeyedAlloc(&cluster.Node{}, cfg, capacity, policy, acc)
	tr.refs = map[dataset.PartKey]Ref{}
	checkpointing := rng.Intn(2) == 0
	tr.real.SetCheckpointing(checkpointing)
	tr.ref.checkpointing = checkpointing
	const datasets, parts = 10, 5
	now := sim.VTime(0)
	if tr.seed%3 == 0 {
		now = 1e9 // touches round to one last access: ties fall to the key
	}
	for op := 0; op < ops; op++ {
		k := dataset.PartKey{Dataset: dataset.ID(1 + rng.Intn(datasets)), Index: rng.Intn(parts)}
		if rng.Intn(3) > 0 {
			now += sim.VTime(rng.Float64())
		}
		before := tr.ref.Keys()
		wasResident := make([]bool, len(before))
		for i, bk := range before {
			wasResident[i] = tr.ref.entries[bk].inMemory
		}
		var what string
		switch c := rng.Intn(24); {
		case c < 7:
			b := sim.Bytes(300 + rng.Intn(4000))
			if rng.Intn(30) == 0 {
				b = capacity + 1 + sim.Bytes(rng.Intn(3000))
			}
			acc[k] = rng.Intn(4)
			what = fmt.Sprintf("Put(%s, %d)", k, b)
			if got, want := tr.put(k, b, now), tr.ref.Put(k, b, now); got != want {
				t.Fatalf("seed %d op %d %s: end %v, reference %v", tr.seed, op, what, got, want)
			}
		case c < 12:
			what = fmt.Sprintf("Access(%s)", k)
			gotEnd, gotHit, gotErr := tr.access(k, now)
			wantEnd, wantHit, wantErr := tr.ref.Access(k, now)
			if gotEnd != wantEnd || gotHit != wantHit || (gotErr == nil) != (wantErr == nil) ||
				gotErr != nil && !strings.Contains(gotErr.Error(), "memorymgr: access to unknown partition") {
				t.Fatalf("seed %d op %d %s: (%v, %v, %v), reference (%v, %v, %v)", tr.seed, op, what,
					gotEnd, gotHit, gotErr, wantEnd, wantHit, wantErr)
			}
		case c < 14:
			what = fmt.Sprintf("Pin(%s)", k)
			tr.pin(k)
			tr.ref.Pin(k)
		case c < 16:
			what = fmt.Sprintf("Unpin(%s)", k)
			tr.unpin(k)
			tr.ref.Unpin(k)
		case c < 18:
			what = fmt.Sprintf("Discard(%s)", k)
			tr.discard(k)
			tr.ref.Discard(k)
		case c < 19:
			what = fmt.Sprintf("Checkpoint(%s)", k)
			if got, want := tr.checkpoint(k, now), tr.ref.Checkpoint(k, now); got != want {
				t.Fatalf("seed %d op %d %s: end %v, reference %v", tr.seed, op, what, got, want)
			}
		case c < 20:
			what = "acc"
			acc[k] = rng.Intn(4)
		case c < 21:
			what = fmt.Sprintf("DropDurable(%s)", k)
			gotL, gotOK := tr.dropDurable(k)
			wantL, wantOK := tr.ref.DropDurable(k)
			if gotL != wantL || gotOK != wantOK {
				t.Fatalf("seed %d op %d %s: (%v, %v), reference (%v, %v)", tr.seed, op, what, gotL, gotOK, wantL, wantOK)
			}
		case c < 22:
			b := sim.Bytes(300 + rng.Intn(4000))
			what = fmt.Sprintf("AdoptSpilled(%s, %d)", k, b)
			if !tr.ref.Known(k) {
				tr.adoptions++
			}
			tr.adoptSpilled(k, b)
			tr.ref.AdoptSpilled(k, b)
		default:
			if rng.Intn(4) > 0 {
				what = "Crash"
				got, want := tr.real.Crash(), tr.ref.Crash()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d Crash: lost %v, reference %v", tr.seed, op, got, want)
				}
				tr.losses += len(want)
			} else {
				what = "Evacuate"
				gotC, gotL := tr.real.Evacuate()
				wantC, wantL := tr.ref.Evacuate()
				if !reflect.DeepEqual(gotC, wantC) || !reflect.DeepEqual(gotL, wantL) {
					t.Fatalf("seed %d op %d Evacuate: (%v, %v), reference (%v, %v)", tr.seed, op, gotC, gotL, wantC, wantL)
				}
				tr.losses += len(wantL)
			}
		}
		tr.compare(op, what, before, wasResident)
	}
}

// compare checks everything the two allocators hold after operation op, and
// counts the victims: the partitions resident before it and tracked but not
// resident after it, when it was not a crash.
func (tr *keyedTrial) compare(op int, what string, before []dataset.PartKey, wasResident []bool) {
	t := tr.t
	keys := tr.real.Keys()
	if want := tr.ref.Keys(); !reflect.DeepEqual(keys, want) {
		t.Fatalf("seed %d op %d %s: keys %v, reference %v", tr.seed, op, what, keys, want)
	}
	for _, k := range keys {
		e := tr.ref.entries[k]
		if !tr.known(k) || tr.resident(k) != e.inMemory || tr.checkpointed(k) != e.onDisk {
			t.Fatalf("seed %d op %d %s: %s known=%v resident=%v durable=%v, reference resident=%v durable=%v",
				tr.seed, op, what, k, tr.known(k), tr.resident(k), tr.checkpointed(k), e.inMemory, e.onDisk)
		}
	}
	for i, k := range before {
		e, tracked := tr.ref.entries[k]
		if !wasResident[i] || !tracked || e.inMemory || what == "Crash" {
			continue
		}
		if tr.resident(k) {
			t.Fatalf("seed %d op %d %s: %s was evicted from the reference only", tr.seed, op, what, k)
		}
		tr.victims++
	}
	if got, want := tr.real.PinnedParts(), tr.ref.PinnedParts(); got != want {
		t.Fatalf("seed %d op %d %s: %d pinned, reference %d", tr.seed, op, what, got, want)
	}
	if got, want := tr.real.TrackedParts(), len(tr.ref.entries); got != want {
		t.Fatalf("seed %d op %d %s: %d tracked, reference %d", tr.seed, op, what, got, want)
	}
	if tr.real.Used() != tr.ref.used {
		t.Fatalf("seed %d op %d %s: used %d, reference %d", tr.seed, op, what, tr.real.Used(), tr.ref.used)
	}
	if *tr.real.Metrics() != tr.ref.metrics {
		t.Fatalf("seed %d op %d %s: metrics %+v, reference %+v", tr.seed, op, what, *tr.real.Metrics(), tr.ref.metrics)
	}
	want := map[dataset.ID]sim.Bytes{}
	for k, b := range tr.ref.spilled {
		want[k.Dataset] += b
	}
	if got := tr.real.SpilledByDataset(); !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d op %d %s: spills %v, reference %v", tr.seed, op, what, got, want)
	}
	if err := tr.real.CheckAccounting(); err != nil {
		t.Fatalf("seed %d op %d %s: %v", tr.seed, op, what, err)
	}
	if err := tr.ref.CheckAccounting(); err != nil {
		t.Fatalf("seed %d op %d %s: reference: %v", tr.seed, op, what, err)
	}
}

// TestAllocatorMatchesKeyedReference compares the allocator with the keyed
// transcription above, operation for operation: 30 seeds of 800 operations
// per policy. The totals at the end make sure the sequences still reach
// evictions, adoptions and losses.
func TestAllocatorMatchesKeyedReference(t *testing.T) {
	for _, policy := range []PolicyKind{AMM, LRU} {
		var victims, adoptions, losses int
		for seed := int64(1); seed <= 30; seed++ {
			tr := &keyedTrial{t: t, seed: seed}
			tr.run(policy, 800)
			victims += tr.victims
			adoptions += tr.adoptions
			losses += tr.losses
		}
		if victims < 2000 || adoptions < 100 || losses < 100 {
			t.Errorf("%s: %d victims, %d adoptions, %d losses over the trials; the sequences no longer reach them",
				policy, victims, adoptions, losses)
		}
	}
}
