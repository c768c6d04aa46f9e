package scheduler

import (
	"testing"

	"metadataflow/internal/graph"
)

// BenchmarkPick measures one BAS decision at a branch head of a flat
// 256-branch explore: every head is ready, the stage executed last was the
// tail of another branch, so no ready stage succeeds it and the hint ranks
// the whole ready list. A 256-branch job makes this decision 256 times.
func BenchmarkPick(b *testing.B) {
	hints := make([]float64, 256)
	for i := range hints {
		hints[i] = float64((i * 37) % 256)
	}
	p, heads := buildPlan(b, hints)
	last := p.Post(heads[0])[0]
	ready := heads[1:]
	for _, c := range []struct {
		name string
		hint Hint
	}{
		{"default", DefaultHint()},
		{"sorted", SortedHint(false)},
	} {
		b.Run(c.name, func(b *testing.B) {
			pol := BAS(c.hint)
			pol.Init(p)
			var picked *graph.Stage
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				picked = pol.Pick(ready, last)
			}
			if picked == nil {
				b.Fatal("no pick")
			}
		})
	}
}
