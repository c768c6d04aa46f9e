package memorymgr

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
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
// or, under LRU, of the last access (ties by key). It logs every spill by
// partition. TestAlg2Reference drives it and the real Allocator with the same
// seeded random operations and compares them after every one.

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
	spilled       map[dataset.PartKey]sim.Bytes
	metrics       Metrics
	seq           sim.VTime
	checkpointing bool
	probe         *obs.Recorder
}

// unknownPartition begins the error of an access to a partition the
// allocator does not track.
const unknownPartition = "memorymgr: access to unknown partition"

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
		a.spilled[v.key] += v.bytes
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
		a.spilled[key] += bytes
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
		return t, false, errors.New(unknownPartition)
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

// spilledByDataset sums the spill log by dataset, as SpilledByDataset does.
func (a *refAlloc) spilledByDataset() map[dataset.ID]sim.Bytes {
	out := map[dataset.ID]sim.Bytes{}
	for k, b := range a.spilled {
		out[k.Dataset] += b
	}
	return out
}

// check is the reference's own accounting: one entry per key, and no more
// resident than the budget.
func (a *refAlloc) check() error {
	keys := a.keys()
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return fmt.Errorf("%s is tracked twice", keys[i])
		}
	}
	if u := a.used(); u > a.capacity {
		return fmt.Errorf("%d bytes resident over the %d-byte budget", u, a.capacity)
	}
	return nil
}

// op is one allocator call of a trial, or, for opAcc, a change of a
// partition's future accesses: a consumer ran, or a branch was pruned.
type op int

const (
	opPut op = iota
	opAccess
	opPin
	opUnpin
	opDiscard
	opCheckpoint
	opAcc
	opDropDurable
	opAdopt
	opCrash
	opEvacuate
	opRare // a draw from the mix's rare operations
)

// times returns n copies of o, o's weight in a mix's table.
func times(n int, o op) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = o
	}
	return out
}

// opMix is the shape of a trial's seeded sequences: seeds of ops
// operations, the budget, how a partition is drawn, one Put in oversize over
// the budget by up to span bytes, and the operation drawn next, from opTable
// and, for opRare, from rare.
// A seed that is a multiple of tieSeeds starts at a virtual time large
// enough that consecutive touches round to one last access, so that equal
// preferences meet equal last accesses and the key decides.
type opMix struct {
	seeds, tieSeeds int64
	ops             int
	capacity        sim.Bytes
	key             func(rng *rand.Rand) dataset.PartKey
	oversize, span  int
	opTable, rare   []op
}

// mixes are the trials of TestAlg2Reference. The first draws from 12×3
// partitions, so about a third of its Puts store a partition the allocator
// tracks already. The second, 30 seeds of 800 operations over 10×5
// partitions, crashes or evacuates the node five times as often, and adopts
// and drops durable copies.
var mixes = []opMix{
	{
		seeds: 24, ops: 600, capacity: 10_000, oversize: 25, span: 5000, tieSeeds: 2,
		key: func(rng *rand.Rand) dataset.PartKey {
			u := rng.Intn(12 * 3)
			return dataset.PartKey{Dataset: dataset.ID(1 + u/3), Index: u % 3}
		},
		opTable: slices.Concat(times(7, opPut), times(5, opAccess), []op{opPin, opUnpin}, times(2, opDiscard),
			[]op{opCheckpoint, opAcc}, times(2, opRare)),
		rare: slices.Concat([]op{opCrash, opEvacuate}, times(3, opDropDurable), times(7, opAdopt)),
	},
	{
		seeds: 30, ops: 800, capacity: 12_000, oversize: 30, span: 3000, tieSeeds: 3,
		key: func(rng *rand.Rand) dataset.PartKey {
			return dataset.PartKey{Dataset: dataset.ID(1 + rng.Intn(10)), Index: rng.Intn(5)}
		},
		opTable: slices.Concat(times(7, opPut), times(5, opAccess), times(2, opPin), times(2, opUnpin), times(2, opDiscard),
			[]op{opCheckpoint, opAcc, opDropDurable, opAdopt}, times(2, opRare)),
		rare: slices.Concat([]op{opEvacuate}, times(3, opCrash)),
	},
}

// alg2Trial is one seeded sequence of a mix. It counts the victims, the
// partitions adopted and the partitions lost in crashes and evacuations.
type alg2Trial struct {
	mix       opMix
	seed      int64
	policy    PolicyKind
	probed    bool
	victims   []dataset.PartKey
	adoptions int
	losses    int
}

func (tr *alg2Trial) run(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(tr.seed))
	capacity := tr.mix.capacity
	cfg := cluster.DefaultConfig()
	acc := accMap{}
	real := NewAllocator(&cluster.Node{}, cfg, capacity, tr.policy, acc)
	ref := &refAlloc{node: &cluster.Node{}, cfg: cfg, capacity: capacity, policy: tr.policy, acc: acc,
		spilled: map[dataset.PartKey]sim.Bytes{}}
	checkpointing := rng.Intn(2) == 0
	real.SetCheckpointing(checkpointing)
	ref.checkpointing = checkpointing
	var realRec, refRec *obs.Recorder
	if tr.probed {
		realRec, refRec = obs.NewRecorder(), obs.NewRecorder()
		real.SetProbe(realRec)
		ref.probe = refRec
		for d := int64(1); d <= 12; d++ {
			name := fmt.Sprintf("d%d", d)
			realRec.RegisterDataset(d, name)
			refRec.RegisterDataset(d, name)
		}
	}
	// The driver keeps the handle of every partition it stored; one it
	// discarded, lost or evacuated stays in the map, stale, and the calls the
	// sequence still makes through it must be refused.
	refs := map[dataset.PartKey]Ref{}
	now := sim.VTime(0)
	if tr.seed%tr.mix.tieSeeds == 0 {
		now = 1e9
	}
	for i := 0; i < tr.mix.ops; i++ {
		key := tr.mix.key(rng)
		if rng.Intn(3) > 0 {
			now += sim.VTime(rng.Float64())
		}
		resident := map[dataset.PartKey]bool{}
		for _, k := range real.Keys() {
			resident[k] = inMemory(real, refs[k])
		}
		o := tr.mix.opTable[rng.Intn(len(tr.mix.opTable))]
		if o == opRare {
			o = tr.mix.rare[rng.Intn(len(tr.mix.rare))]
		}
		what := ""
		switch o {
		case opPut:
			bytes := sim.Bytes(300 + rng.Intn(4000))
			if rng.Intn(tr.mix.oversize) == 0 {
				bytes = capacity + 1 + sim.Bytes(rng.Intn(tr.mix.span))
			}
			acc[key] = rng.Intn(4)
			what = fmt.Sprintf("Put(%s, %d)", key, bytes)
			real.Discard(refs[key]) // a partition stored again replaces what was tracked
			var got sim.VTime
			refs[key], got = real.Put(key, bytes, now)
			if want := ref.Put(key, bytes, now); got != want {
				t.Fatalf("seed %d op %d %s: end %v, reference %v", tr.seed, i, what, got, want)
			}
		case opAccess:
			what = fmt.Sprintf("Access(%s)", key)
			gotEnd, gotHit, gotErr := real.Access(refs[key], now)
			wantEnd, wantHit, wantErr := ref.Access(key, now)
			if gotEnd != wantEnd || gotHit != wantHit || (gotErr == nil) != (wantErr == nil) ||
				gotErr != nil && !strings.HasPrefix(gotErr.Error(), unknownPartition) {
				t.Fatalf("seed %d op %d %s: (%v, %v, %v), reference (%v, %v, %v)", tr.seed, i, what,
					gotEnd, gotHit, gotErr, wantEnd, wantHit, wantErr)
			}
		case opPin:
			what = fmt.Sprintf("Pin(%s)", key)
			real.Pin(refs[key])
			if e := ref.find(key); e != nil {
				e.pinned = true
			}
		case opUnpin:
			what = fmt.Sprintf("Unpin(%s)", key)
			real.Unpin(refs[key])
			if e := ref.find(key); e != nil {
				e.pinned = false
			}
		case opDiscard:
			what = fmt.Sprintf("Discard(%s)", key)
			real.Discard(refs[key])
			ref.remove(key)
		case opCheckpoint:
			what = fmt.Sprintf("Checkpoint(%s)", key)
			if got, want := real.Checkpoint(refs[key], now), ref.Checkpoint(key, now); got != want {
				t.Fatalf("seed %d op %d %s: end %v, reference %v", tr.seed, i, what, got, want)
			}
		case opAcc:
			acc[key] = rng.Intn(4)
			what = "acc"
		case opCrash:
			what = "Crash"
			got, want := real.Crash(), ref.Crash()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d op %d Crash: lost %v, reference %v", tr.seed, i, got, want)
			}
			tr.losses += len(want)
		case opEvacuate:
			what = "Evacuate"
			gotC, gotL := real.Evacuate()
			wantC, wantL := ref.Evacuate()
			if !reflect.DeepEqual(gotC, wantC) || !reflect.DeepEqual(gotL, wantL) {
				t.Fatalf("seed %d op %d Evacuate: (%v, %v), reference (%v, %v)", tr.seed, i, gotC, gotL, wantC, wantL)
			}
			tr.losses += len(wantL)
		case opDropDurable:
			what = fmt.Sprintf("DropDurable(%s)", key)
			gotL, gotOK := real.DropDurable(refs[key])
			wantL, wantOK := ref.DropDurable(key)
			if gotL != wantL || gotOK != wantOK {
				t.Fatalf("seed %d op %d %s: (%v, %v), reference (%v, %v)", tr.seed, i, what, gotL, gotOK, wantL, wantOK)
			}
		case opAdopt:
			bytes := sim.Bytes(300 + rng.Intn(4000))
			what = fmt.Sprintf("AdoptSpilled(%s, %d)", key, bytes)
			if !real.Known(refs[key]) {
				refs[key] = real.AdoptSpilled(key, bytes)
			}
			if ref.find(key) == nil {
				ref.entries = append(ref.entries, &refEntry{key: key, bytes: bytes, onDisk: true})
				tr.adoptions++
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
			t.Fatalf("seed %d op %d %s: keys %v, reference %v", tr.seed, i, what, keys, want)
		}
		for _, k := range keys {
			e := ref.find(k)
			if r := refs[k]; !real.Known(r) || inMemory(real, r) != e.inMemory || real.Checkpointed(r) != e.onDisk {
				t.Fatalf("seed %d op %d %s: %s known=%v resident=%v durable=%v, reference resident=%v durable=%v",
					tr.seed, i, what, k, real.Known(r), inMemory(real, r), real.Checkpointed(r), e.inMemory, e.onDisk)
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
				tr.seed, i, what, real.PinnedParts(), real.TrackedParts(), pinned, len(ref.entries))
		}
		if real.Used() != ref.used() {
			t.Fatalf("seed %d op %d %s: used %d, reference %d", tr.seed, i, what, real.Used(), ref.used())
		}
		if *real.Metrics() != ref.metrics {
			t.Fatalf("seed %d op %d %s: metrics %+v, reference %+v", tr.seed, i, what, *real.Metrics(), ref.metrics)
		}
		if got, want := real.SpilledByDataset(), ref.spilledByDataset(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d op %d %s: spills %v, reference %v", tr.seed, i, what, got, want)
		}
		if err := real.CheckAccounting(); err != nil {
			t.Fatalf("seed %d op %d %s: %v", tr.seed, i, what, err)
		}
		if err := ref.check(); err != nil {
			t.Fatalf("seed %d op %d %s: reference: %v", tr.seed, i, what, err)
		}
	}
	if !tr.probed {
		return
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
}

// TestAlg2Reference compares the allocator with the transcription above,
// operation for operation, over every seed of each mix and both policies,
// each seed run with and without a recording probe and the two runs'
// victims compared with each other as well. The totals per mix and policy
// make sure the sequences still fill the budget, adopt and lose partitions.
func TestAlg2Reference(t *testing.T) {
	for m, mix := range mixes {
		for _, policy := range []PolicyKind{AMM, LRU} {
			var victims, adoptions, losses int
			for seed := int64(1); seed <= mix.seeds; seed++ {
				var runs [2]alg2Trial
				for i, probed := range []bool{false, true} {
					runs[i] = alg2Trial{mix: mix, seed: seed, policy: policy, probed: probed}
					runs[i].run(t)
				}
				if !reflect.DeepEqual(runs[0].victims, runs[1].victims) {
					t.Fatalf("mix %d %s seed %d: the victims depend on the probe", m, policy, seed)
				}
				victims += len(runs[0].victims)
				adoptions += runs[0].adoptions
				losses += runs[0].losses
			}
			t.Logf("mix %d %s: %d victims, %d adoptions, %d losses", m, policy, victims, adoptions, losses)
			if victims < 2000 || adoptions < 100 || losses < 100 {
				t.Errorf("mix %d %s: %d victims, %d adoptions, %d losses over the trials; the sequences no longer reach them",
					m, policy, victims, adoptions, losses)
			}
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
