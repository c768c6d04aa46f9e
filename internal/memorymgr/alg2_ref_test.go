package memorymgr

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/obs"
	"metadataflow/internal/sim"
)

// This file holds a paper-literal transcription of the allocator and of
// Alg. 2, quadratic and obvious: entries in a plain list searched by key, and
// a victim chosen by collecting the candidates, sorting them by key and
// taking the argmin of pre(d) = acc(d)·δ(n,d)·α (ties by LRU, then by key)
// or, under LRU, of the last access (ties by key). TestAlg2Reference drives it
// and the real Allocator with the same seeded random operations and compares
// them after every one.

type refEntry struct {
	key                      dataset.PartKey
	bytes                    sim.Bytes
	lastAccess               sim.VTime
	inMemory, pinned, onDisk bool
}

type refAlloc struct {
	node          *cluster.Node
	cfg           cluster.Config
	capacity      sim.Bytes
	policy        PolicyKind
	acc           AccessCounter
	entries       []*refEntry
	metrics       Metrics
	seq           sim.VTime
	checkpointing bool
	probe         *obs.Recorder
}

func (a *refAlloc) find(key dataset.PartKey) *refEntry {
	for _, e := range a.entries {
		if e.key == key {
			return e
		}
	}
	return nil
}

func (a *refAlloc) remove(key dataset.PartKey) {
	for i, e := range a.entries {
		if e.key == key {
			a.entries = append(a.entries[:i], a.entries[i+1:]...)
			return
		}
	}
}

func (a *refAlloc) used() sim.Bytes {
	var n sim.Bytes
	for _, e := range a.entries {
		if e.inMemory {
			n += e.bytes
		}
	}
	return n
}

func (a *refAlloc) label(key dataset.PartKey) string {
	return a.probe.Label(int64(key.Dataset), key.Index)
}

func (a *refAlloc) pre(e *refEntry) float64 {
	return float64(a.acc.FutureAccesses(e.key)) * float64(e.bytes) * a.cfg.Alpha()
}

func (a *refAlloc) touch(e *refEntry, t sim.VTime) {
	a.seq += 1e-9
	e.lastAccess = t + a.seq
}

func (a *refAlloc) notePeak() {
	if u := a.used(); u > a.metrics.PeakResidentBytes {
		a.metrics.PeakResidentBytes = u
	}
}

func keyLess(x, y dataset.PartKey) bool {
	if x.Dataset != y.Dataset {
		return x.Dataset < y.Dataset
	}
	return x.Index < y.Index
}

// victim is Alg. 2: among the resident partitions — the unpinned ones while
// there is one — the one of least preference.
func (a *refAlloc) victim() (*refEntry, []*refEntry) {
	var cands []*refEntry
	for _, e := range a.entries {
		if e.inMemory && !e.pinned {
			cands = append(cands, e)
		}
	}
	if len(cands) == 0 {
		for _, e := range a.entries {
			if e.inMemory {
				cands = append(cands, e)
			}
		}
	}
	if len(cands) == 0 {
		return nil, nil
	}
	sort.Slice(cands, func(i, j int) bool { return keyLess(cands[i].key, cands[j].key) })
	best := cands[0]
	for _, e := range cands[1:] {
		switch {
		case a.policy == AMM && a.pre(e) != a.pre(best):
			if a.pre(e) < a.pre(best) {
				best = e
			}
		case e.lastAccess < best.lastAccess:
			best = e
		}
	}
	return best, cands
}

func (a *refAlloc) makeRoom(bytes sim.Bytes, t sim.VTime) sim.VTime {
	for a.used()+bytes > a.capacity {
		v, cands := a.victim()
		if v == nil {
			break
		}
		if a.probe != nil {
			d := obs.Decision{
				T: t, Node: a.node.ID, Component: "memorymgr", Kind: "evict",
				Subject: a.label(v.key),
				Detail:  fmt.Sprintf("policy=%s bytes=%d", a.policy, v.bytes),
			}
			for _, e := range cands {
				score := e.lastAccess.Seconds()
				if a.policy == AMM {
					score = a.pre(e)
				}
				d.Candidates = append(d.Candidates, obs.Candidate{Label: a.label(e.key), Score: score, Chosen: e == v})
			}
			a.probe.Decision(d)
		}
		v.inMemory = false
		a.metrics.Evictions++
		if a.checkpointing && v.onDisk {
			continue
		}
		v.onDisk = true
		a.metrics.SpilledBytes += v.bytes
		t = a.node.Disk(t, a.cfg.DiskWriteSec(v.bytes))
		if a.probe != nil {
			a.probe.Counter(a.node.ID, "mem.spilled_bytes", t, float64(a.metrics.SpilledBytes))
		}
	}
	return t
}

func (a *refAlloc) Put(key dataset.PartKey, bytes sim.Bytes, t sim.VTime) sim.VTime {
	a.remove(key) // a partition stored again replaces what was tracked
	e := &refEntry{key: key, bytes: bytes}
	a.entries = append(a.entries, e)
	if bytes > a.capacity {
		e.onDisk = true
		a.metrics.Evictions++
		a.metrics.SpilledBytes += bytes
		if a.probe != nil {
			a.probe.Decision(obs.Decision{
				T: t, Node: a.node.ID, Component: "memorymgr", Kind: "evict",
				Subject: a.label(key),
				Detail:  fmt.Sprintf("oversized: %d bytes exceed the %d-byte memory budget, written straight to disk", bytes, a.capacity),
			})
		}
		end := a.node.Disk(t, a.cfg.DiskWriteSec(bytes))
		if a.probe != nil {
			a.probe.Counter(a.node.ID, "mem.spilled_bytes", end, float64(a.metrics.SpilledBytes))
		}
		return end
	}
	t = a.makeRoom(bytes, t)
	e.inMemory = true
	a.notePeak()
	a.touch(e, t)
	end := a.node.CPU(t, a.cfg.MemWriteSec(bytes))
	if a.probe != nil {
		a.probe.Counter(a.node.ID, "mem.resident_bytes", end, float64(a.used()))
	}
	return end
}

func (a *refAlloc) Access(key dataset.PartKey, t sim.VTime) (sim.VTime, bool, error) {
	e := a.find(key)
	if e == nil {
		return t, false, fmt.Errorf("unknown")
	}
	if e.inMemory {
		a.metrics.Hits++
		a.metrics.BytesFromMem += e.bytes
		a.touch(e, t)
		return a.node.CPU(t, a.cfg.MemReadSec(e.bytes)), true, nil
	}
	a.metrics.Misses++
	a.metrics.BytesFromDisk += e.bytes
	end := a.node.Disk(t, a.cfg.DiskReadSec(e.bytes))
	if e.bytes <= a.capacity {
		end = a.makeRoom(e.bytes, end)
		e.inMemory = true
		a.notePeak()
		if a.probe != nil {
			a.probe.Counter(a.node.ID, "mem.resident_bytes", end, float64(a.used()))
		}
	}
	a.touch(e, end)
	return end, false, nil
}

func (a *refAlloc) Checkpoint(key dataset.PartKey, t sim.VTime) sim.VTime {
	e := a.find(key)
	if e == nil || e.onDisk {
		return t
	}
	e.onDisk = true
	a.metrics.Checkpoints++
	a.metrics.CheckpointedBytes += e.bytes
	end := a.node.Disk(t, a.cfg.DiskWriteSec(e.bytes))
	if a.probe != nil {
		a.probe.Decision(obs.Decision{
			T: t, Node: a.node.ID, Component: "memorymgr", Kind: "checkpoint",
			Subject: a.label(key),
			Detail:  fmt.Sprintf("bytes=%d pref=%g", e.bytes, a.pre(e)),
		})
		a.probe.Counter(a.node.ID, "mem.checkpointed_bytes", end, float64(a.metrics.CheckpointedBytes))
	}
	return end
}

func (a *refAlloc) Crash() []Lost {
	var lost []Lost
	var kept []*refEntry
	for _, e := range a.entries {
		e.inMemory = false
		if e.onDisk {
			kept = append(kept, e)
		} else {
			lost = append(lost, Lost{Key: e.key, Bytes: e.bytes})
		}
	}
	a.entries = kept
	sort.Slice(lost, func(i, j int) bool { return keyLess(lost[i].Key, lost[j].Key) })
	return lost
}

func (a *refAlloc) Evacuate() (checkpointed, lost []Lost) {
	for _, e := range a.entries {
		if e.onDisk {
			checkpointed = append(checkpointed, Lost{Key: e.key, Bytes: e.bytes})
		} else {
			lost = append(lost, Lost{Key: e.key, Bytes: e.bytes})
		}
	}
	a.entries = nil
	sort.Slice(checkpointed, func(i, j int) bool { return keyLess(checkpointed[i].Key, checkpointed[j].Key) })
	sort.Slice(lost, func(i, j int) bool { return keyLess(lost[i].Key, lost[j].Key) })
	return checkpointed, lost
}

func (a *refAlloc) DropDurable(key dataset.PartKey) (Lost, bool) {
	e := a.find(key)
	if e == nil || e.inMemory || !e.onDisk {
		return Lost{}, false
	}
	a.remove(key)
	return Lost{Key: e.key, Bytes: e.bytes}, true
}

func (a *refAlloc) keys() []dataset.PartKey {
	keys := make([]dataset.PartKey, 0, len(a.entries))
	for _, e := range a.entries {
		keys = append(keys, e.key)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	return keys
}

// alg2Trial is one seeded sequence over a universe of a few dozen partitions;
// about a third of its Puts store a partition the allocator already tracks.
type alg2Trial struct {
	seed    int64
	policy  PolicyKind
	probed  bool
	ops     int
	baseT   sim.VTime // 0, or large enough that consecutive touches round to one lastAccess
	victims []dataset.PartKey
}

func (tr *alg2Trial) run(t *testing.T) (decisions []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(tr.seed))
	const capacity = 10_000
	cfg := cluster.DefaultConfig()
	acc := accMap{}
	real := NewAllocator(&cluster.Node{}, cfg, capacity, tr.policy, acc)
	ref := &refAlloc{node: &cluster.Node{}, cfg: cfg, capacity: capacity, policy: tr.policy, acc: acc}
	checkpointing := rng.Intn(2) == 0
	real.SetCheckpointing(checkpointing)
	ref.checkpointing = checkpointing
	var realRec, refRec *obs.Recorder
	if tr.probed {
		realRec, refRec = obs.NewRecorder(), obs.NewRecorder()
		real.SetProbe(realRec)
		ref.probe = refRec
	}
	const datasets, parts = 12, 3
	universe := make([]dataset.PartKey, 0, datasets*parts)
	for d := 1; d <= datasets; d++ {
		if tr.probed {
			name := fmt.Sprintf("d%d", d)
			realRec.RegisterDataset(int64(d), name)
			refRec.RegisterDataset(int64(d), name)
		}
		for p := 0; p < parts; p++ {
			universe = append(universe, dataset.PartKey{Dataset: dataset.ID(d), Index: p})
		}
	}
	// The driver keeps the handle of every partition it stored; one it
	// discarded, lost or evacuated stays in the map, stale, and the calls the
	// sequence still makes through it must be refused.
	refs := map[dataset.PartKey]Ref{}
	now := tr.baseT
	for op := 0; op < tr.ops; op++ {
		key := universe[rng.Intn(len(universe))]
		if rng.Intn(3) > 0 {
			now += sim.VTime(rng.Float64())
		}
		resident := map[dataset.PartKey]bool{}
		for _, k := range real.Keys() {
			resident[k] = inMemory(real, refs[k])
		}
		what := ""
		switch k := rng.Intn(20); {
		case k < 7:
			bytes := sim.Bytes(300 + rng.Intn(4000))
			if rng.Intn(25) == 0 {
				bytes = capacity + sim.Bytes(rng.Intn(5000)) + 1
			}
			acc[key] = rng.Intn(4)
			what = fmt.Sprintf("Put(%s, %d)", key, bytes)
			real.Discard(refs[key]) // a partition stored again replaces what was tracked
			var got sim.VTime
			refs[key], got = real.Put(key, bytes, now)
			if want := ref.Put(key, bytes, now); got != want {
				t.Fatalf("seed %d op %d %s: end %v, reference %v", tr.seed, op, what, got, want)
			}
		case k < 12:
			what = fmt.Sprintf("Access(%s)", key)
			gotEnd, gotHit, gotErr := real.Access(refs[key], now)
			wantEnd, wantHit, wantErr := ref.Access(key, now)
			if gotEnd != wantEnd || gotHit != wantHit || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("seed %d op %d %s: (%v, %v, %v), reference (%v, %v, %v)", tr.seed, op, what,
					gotEnd, gotHit, gotErr, wantEnd, wantHit, wantErr)
			}
		case k < 13:
			what = fmt.Sprintf("Pin(%s)", key)
			real.Pin(refs[key])
			if e := ref.find(key); e != nil {
				e.pinned = true
			}
		case k < 14:
			what = fmt.Sprintf("Unpin(%s)", key)
			real.Unpin(refs[key])
			if e := ref.find(key); e != nil {
				e.pinned = false
			}
		case k < 16:
			what = fmt.Sprintf("Discard(%s)", key)
			real.Discard(refs[key])
			ref.remove(key)
		case k < 17:
			what = fmt.Sprintf("Checkpoint(%s)", key)
			if got, want := real.Checkpoint(refs[key], now), ref.Checkpoint(key, now); got != want {
				t.Fatalf("seed %d op %d %s: end %v, reference %v", tr.seed, op, what, got, want)
			}
		case k < 18:
			acc[key] = rng.Intn(4) // a consumer ran, or a branch was pruned
			what = "acc"
		default:
			switch rng.Intn(12) {
			case 0:
				what = "Crash"
				if got, want := real.Crash(), ref.Crash(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d Crash: lost %v, reference %v", tr.seed, op, got, want)
				}
			case 1:
				what = "Evacuate"
				gotC, gotL := real.Evacuate()
				wantC, wantL := ref.Evacuate()
				if !reflect.DeepEqual(gotC, wantC) || !reflect.DeepEqual(gotL, wantL) {
					t.Fatalf("seed %d op %d Evacuate: (%v, %v), reference (%v, %v)", tr.seed, op, gotC, gotL, wantC, wantL)
				}
			case 2, 3, 4:
				what = fmt.Sprintf("DropDurable(%s)", key)
				gotL, gotOK := real.DropDurable(refs[key])
				wantL, wantOK := ref.DropDurable(key)
				if gotL != wantL || gotOK != wantOK {
					t.Fatalf("seed %d op %d %s: (%v, %v), reference (%v, %v)", tr.seed, op, what, gotL, gotOK, wantL, wantOK)
				}
			default:
				bytes := sim.Bytes(300 + rng.Intn(4000))
				what = fmt.Sprintf("AdoptSpilled(%s, %d)", key, bytes)
				if !real.Known(refs[key]) {
					refs[key] = real.AdoptSpilled(key, bytes)
				}
				if ref.find(key) == nil {
					ref.entries = append(ref.entries, &refEntry{key: key, bytes: bytes, onDisk: true})
				}
			}
		}

		// Victim for victim: what was resident before the operation and is
		// tracked but not resident after it was evicted by it (a crash empties
		// memory without choosing).
		if what != "Crash" {
			for _, k := range real.Keys() {
				if resident[k] && !inMemory(real, refs[k]) {
					tr.victims = append(tr.victims, k)
				}
			}
		}
		keys := real.Keys()
		if want := ref.keys(); !reflect.DeepEqual(keys, want) {
			t.Fatalf("seed %d op %d %s: keys %v, reference %v", tr.seed, op, what, keys, want)
		}
		for _, k := range keys {
			e := ref.find(k)
			if r := refs[k]; inMemory(real, r) != e.inMemory || real.Checkpointed(r) != e.onDisk {
				t.Fatalf("seed %d op %d %s: %s resident=%v durable=%v, reference resident=%v durable=%v",
					tr.seed, op, what, k, inMemory(real, r), real.Checkpointed(r), e.inMemory, e.onDisk)
			}
		}
		pinned := 0
		for _, e := range ref.entries {
			if e.pinned {
				pinned++
			}
		}
		if real.PinnedParts() != pinned || real.TrackedParts() != len(ref.entries) {
			t.Fatalf("seed %d op %d %s: pinned %d tracked %d, reference %d and %d",
				tr.seed, op, what, real.PinnedParts(), real.TrackedParts(), pinned, len(ref.entries))
		}
		if real.Used() != ref.used() {
			t.Fatalf("seed %d op %d %s: used %d, reference %d", tr.seed, op, what, real.Used(), ref.used())
		}
		if *real.Metrics() != ref.metrics {
			t.Fatalf("seed %d op %d %s: metrics %+v, reference %+v", tr.seed, op, what, *real.Metrics(), ref.metrics)
		}
		if err := real.CheckAccounting(); err != nil {
			t.Fatalf("seed %d op %d %s: %v", tr.seed, op, what, err)
		}
	}
	if !tr.probed {
		return nil
	}
	if got, want := realRec.Decisions(), refRec.Decisions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d: decisions differ from the reference's (%d and %d of them)", tr.seed, len(got), len(want))
	}
	if got, want := realRec.CounterSamples(), refRec.CounterSamples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d: counter samples differ from the reference's (%d and %d of them)", tr.seed, len(got), len(want))
	}
	var realLog, refLog bytes.Buffer
	if err := realRec.WriteDecisions(&realLog); err != nil {
		t.Fatal(err)
	}
	if err := refRec.WriteDecisions(&refLog); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(realLog.Bytes(), refLog.Bytes()) {
		t.Fatalf("seed %d: decision log differs from the reference's", tr.seed)
	}
	return realLog.Bytes()
}

// TestAlg2Reference compares the allocator with the transcription above,
// operation for operation: 24 seeds of 600 operations per policy, each run
// with and without a recording probe, the two runs' victims compared with
// each other as well. Half the seeds start at a virtual time large enough
// that the tie-breaking increment of touch is rounded away, so that equal
// preferences meet equal last accesses and the key decides.
func TestAlg2Reference(t *testing.T) {
	for _, policy := range []PolicyKind{AMM, LRU} {
		evictions := 0
		for seed := int64(1); seed <= 24; seed++ {
			base := sim.VTime(0)
			if seed%2 == 0 {
				base = 1e9
			}
			var victims [2][]dataset.PartKey
			for i, probed := range []bool{false, true} {
				tr := &alg2Trial{seed: seed, policy: policy, probed: probed, ops: 600, baseT: base}
				tr.run(t)
				victims[i] = tr.victims
			}
			if !reflect.DeepEqual(victims[0], victims[1]) {
				t.Fatalf("%s seed %d: the victims depend on the probe", policy, seed)
			}
			evictions += len(victims[0])
		}
		if evictions < 2000 {
			t.Errorf("%s: only %d evictions over the trials; the sequences no longer fill the budget", policy, evictions)
		}
	}
}

// TestPutAgainReleasesTheOldEntry pins the fix the reference's op mix found
// wanting: storing a partition again releases the old entry's resident bytes
// and pin first. The caller discards the old handle before the second Put;
// the handle is stale afterwards even though the new entry reuses its slot.
func TestPutAgainReleasesTheOldEntry(t *testing.T) {
	a, _ := newAlloc(2500, LRU, nil)
	old := put(a, key(1), 1000, 0)
	a.Pin(old)
	a.Discard(old)
	fresh := put(a, key(1), 700, 1)
	if fresh.slot != old.slot {
		t.Fatalf("the second Put took slot %d, not the released slot %d", fresh.slot, old.slot)
	}
	// The old handle names the reused slot under a spent generation: it
	// reaches nothing, the new entry least of all.
	a.Pin(old)
	a.Discard(old)
	if _, _, err := a.Access(old, 2); err == nil {
		t.Fatal("the discarded handle still reads a partition")
	}
	if err := a.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
	if a.Used() != 700 || a.TrackedParts() != 1 || a.PinnedParts() != 0 || !inMemory(a, fresh) {
		t.Fatalf("used %d tracked %d pinned %d resident %v after the second Put, want 700, 1, 0 and true",
			a.Used(), a.TrackedParts(), a.PinnedParts(), inMemory(a, fresh))
	}
}
