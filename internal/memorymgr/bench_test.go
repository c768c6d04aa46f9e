package memorymgr

import (
	"testing"

	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/sim"
)

type fixedAccesses int

func (f fixedAccesses) FutureAccesses(key dataset.PartKey) int { return int(f) }

// benchAllocator returns an AMM allocator holding 256 resident partitions of
// 4 MB, one short of its budget being full, and their handles.
func benchAllocator() (*Allocator, []Ref) {
	a, _ := newAlloc(256<<22, AMM, fixedAccesses(3))
	refs := make([]Ref, 256)
	for i := range refs {
		refs[i] = put(a, key(i), 1<<22, 0)
	}
	return a, refs
}

// BenchmarkAMMEviction measures one eviction decision (Alg. 2's argmin over
// 256 resident partitions) with the Put that forces it. The evictee is
// discarded, so the population stays at 256 resident partitions and nothing
// spilled, whatever b.N.
func BenchmarkAMMEviction(b *testing.B) {
	a, refs := benchAllocator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The oldest partition is the victim: all preferences are equal.
		oldest := refs[i%256]
		refs[i%256] = put(a, key(256+i), 1<<22, sim.VTime(i))
		a.Discard(oldest)
	}
}

// BenchmarkPutAccessDiscard measures the life of a partition that fits: it
// is stored, read twice and discarded. In narrow, it lives beside 255 others
// at one allocator; in wide, it is one of the 4 096 partitions of a single
// dataset, spread over 4 allocators as the engine spreads them (index mod
// workers), and the whole dataset is stored, read twice and discarded per
// 4 096 operations.
func BenchmarkPutAccessDiscard(b *testing.B) {
	b.Run("narrow", func(b *testing.B) {
		a, refs := benchAllocator()
		a.Discard(refs[0])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := sim.VTime(i)
			ref, _ := a.Put(key(256+i), 1<<22, t)
			for reads := 0; reads < 2; reads++ {
				if _, hit, err := a.Access(ref, t); err != nil || !hit {
					b.Fatalf("access %d: hit %v, %v", i, hit, err)
				}
			}
			a.Discard(ref)
		}
	})
	b.Run("wide", func(b *testing.B) {
		const parts, nodes = 4096, 4
		allocs := make([]*Allocator, nodes)
		for n := range allocs {
			allocs[n] = NewAllocator(&cluster.Node{ID: n}, cluster.DefaultConfig(), parts/nodes<<22, AMM, fixedAccesses(3))
		}
		refs := make([]Ref, parts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, t := i%parts, sim.VTime(i)
			if p == 0 && i > 0 {
				// The dataset is read twice, then dropped, and the next one
				// takes its slots.
				for reads := 0; reads < 2; reads++ {
					for q, ref := range refs {
						if _, hit, err := allocs[q%nodes].Access(ref, t); err != nil || !hit {
							b.Fatalf("access %d: hit %v, %v", q, hit, err)
						}
					}
				}
				for q, ref := range refs {
					allocs[q%nodes].Discard(ref)
				}
			}
			refs[p], _ = allocs[p%nodes].Put(dataset.PartKey{Dataset: dataset.ID(1 + i/parts), Index: p}, 1<<22, t)
		}
	})
}
