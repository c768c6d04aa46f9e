package memorymgr

import (
	"testing"

	"metadataflow/internal/sim"
)

// TestSteadyStateAllocatesNothing is the gate on the allocator's hot path
// without a probe: once its entry chunks, its free list, its resident list and
// its spill log have reached their size, a Put that evicts (the victim then
// discarded through its handle, as in BenchmarkAMMEviction) and the
// store-read-discard cycle of a partition that fits allocate nothing, under
// either policy.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	for _, policy := range []PolicyKind{AMM, LRU} {
		a, _ := newAlloc(256<<22, policy, fixedAccesses(3))
		refs := make([]Ref, 256) // ring of the handles of the last 256 partitions
		for i := range refs {
			refs[i] = put(a, key(i), 1<<22, 0)
		}
		next := 256
		evict := func() {
			oldest := refs[next%256]
			refs[next%256] = put(a, key(next), 1<<22, sim.VTime(next))
			if inMemory(a, oldest) {
				t.Fatalf("%s: storing partition %d did not evict the oldest", policy, next)
			}
			a.Discard(oldest)
			// The attribution of the spill stays with the allocator; keep the
			// log empty so that its growth is not what is counted.
			a.spills = a.spills[:0]
			next++
		}
		evict() // the first eviction sizes the spill log
		if n := testing.AllocsPerRun(200, evict); n != 0 {
			t.Errorf("%s: a Put that evicts allocates %.1f times in the steady state, want 0", policy, n)
		}
		a.Discard(refs[(next-1)%256])
		cycle := func() {
			ref := put(a, key(next), 1<<22, sim.VTime(next))
			if _, hit, err := a.Access(ref, sim.VTime(next)); err != nil || !hit {
				t.Fatalf("%s: access: hit %v, %v", policy, hit, err)
			}
			a.Discard(ref)
			next++
		}
		if n := testing.AllocsPerRun(200, cycle); n != 0 {
			t.Errorf("%s: storing, reading and discarding a partition allocates %.1f times, want 0", policy, n)
		}
		if err := a.CheckAccounting(); err != nil {
			t.Error(err)
		}
	}
}
