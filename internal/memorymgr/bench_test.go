package memorymgr

import (
	"testing"

	"metadataflow/internal/dataset"
	"metadataflow/internal/sim"
)

type fixedAccesses int

func (f fixedAccesses) FutureAccesses(key dataset.PartKey) int { return int(f) }

// benchAllocator returns an AMM allocator holding 256 resident partitions of
// 4 MB, one short of its budget being full.
func benchAllocator() *Allocator {
	a, _ := newAlloc(256<<22, AMM, fixedAccesses(3))
	for i := 0; i < 256; i++ {
		a.Put(key(i), 1<<22, 0)
	}
	return a
}

// BenchmarkAMMEviction measures one eviction decision (Alg. 2's argmin over
// 256 resident partitions) with the Put that forces it. The evictee is
// discarded, so the population stays at 256 resident partitions and nothing
// spilled, whatever b.N.
func BenchmarkAMMEviction(b *testing.B) {
	a := benchAllocator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The oldest partition is the victim: all preferences are equal.
		a.Put(key(256+i), 1<<22, sim.VTime(i))
		a.Discard(key(i))
	}
}

// BenchmarkPutAccessDiscard measures the life of a partition that fits: it
// is stored, read twice and discarded, beside 255 others.
func BenchmarkPutAccessDiscard(b *testing.B) {
	a := benchAllocator()
	a.Discard(key(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, t := key(256+i), sim.VTime(i)
		a.Put(k, 1<<22, t)
		for reads := 0; reads < 2; reads++ {
			if _, hit, err := a.Access(k, t); err != nil || !hit {
				b.Fatalf("access %d: hit %v, %v", i, hit, err)
			}
		}
		a.Discard(k)
	}
}
