package memorymgr

import (
	"testing"

	"metadataflow/internal/sim"
)

// TestSteadyStateAllocatesNothing is the gate on the allocator's hot path
// without a probe: once its entry chunks, its resident list and its maps have
// reached their size, a Put that evicts (the victim then discarded, as in
// BenchmarkAMMEviction, so that the spill-attribution map does not grow by a
// key per call) and the store-read-discard cycle of a partition that fits
// allocate nothing, under either policy.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	for _, policy := range []PolicyKind{AMM, LRU} {
		a, _ := newAlloc(256<<22, policy, fixedAccesses(3))
		for i := 0; i < 256; i++ {
			a.Put(key(i), 1<<22, 0)
		}
		next := 256
		evict := func() {
			a.Put(key(next), 1<<22, sim.VTime(next))
			if inMemory(a, key(next-256)) {
				t.Fatalf("%s: storing partition %d did not evict the oldest", policy, next)
			}
			a.Discard(key(next - 256))
			// The attribution of the spill stays with the allocator; keep the
			// map at one key so that its growth is not what is counted.
			delete(a.spilled, key(next-256))
			next++
		}
		evict() // the first eviction sizes the spill map
		if n := testing.AllocsPerRun(200, evict); n != 0 {
			t.Errorf("%s: a Put that evicts allocates %.1f times in the steady state, want 0", policy, n)
		}
		a.Discard(key(next - 1))
		cycle := func() {
			k := key(next)
			a.Put(k, 1<<22, sim.VTime(next))
			if _, hit, err := a.Access(k, sim.VTime(next)); err != nil || !hit {
				t.Fatalf("%s: access: hit %v, %v", policy, hit, err)
			}
			a.Discard(k)
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
