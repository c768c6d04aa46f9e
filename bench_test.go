package metadataflow

// This file holds one sub-benchmark per table and figure of the paper's
// evaluation (§6), under BenchmarkExperiment. Each regenerates the figure's
// data series on the simulated cluster and logs the reproduced table. Run
// with
//
//	go test -bench=. -benchmem            # full-scale sweeps (3 seeds)
//	go test -bench=. -benchmem -short     # reduced sweeps for a fast pass
//
// The reported ns/op is the wall time of regenerating the whole figure;
// the numbers inside the logged tables are virtual cluster seconds.

import (
	"testing"

	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/experiments"
	"metadataflow/internal/mdf"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/sim"
)

// BenchmarkExperiment regenerates every registered experiment as a
// sub-benchmark named after its id: -bench 'BenchmarkExperiment/fig9$'
// runs one of them.
func BenchmarkExperiment(b *testing.B) {
	opts := experiments.DefaultOptions()
	if testing.Short() {
		opts = experiments.Options{Seeds: 1, Quick: true}
	}
	for _, exp := range experiments.Registry() {
		b.Run(exp.ID, func(b *testing.B) {
			var tab *experiments.Table
			for i := 0; i < b.N; i++ {
				var err error
				if tab, err = exp.Run(opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.Log("\n" + tab.Format())
		})
	}
}

// BenchmarkChooseThroughput measures master-side selection throughput,
// the §5 claim that a low-end master sustains ~2M choose invocations per
// second when collecting results.
func BenchmarkChooseThroughput(b *testing.B) {
	chooser := mdf.NewChooser(mdf.SizeEvaluator(), mdf.TopK(4))
	session := chooser.NewSession(b.N + 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		session.Offer(i, float64(i%97))
	}
}

// BenchmarkAMMEviction measures a single eviction decision over a populated
// allocator (Alg. 2's argmin scan).
func BenchmarkAMMEviction(b *testing.B) {
	cfg := cluster.DefaultConfig()
	node := &cluster.Node{}
	counter := fixedAccesses(3)
	alloc := memorymgr.NewAllocator(node, cfg, 1<<30, memorymgr.AMM, counter)
	for i := 0; i < 256; i++ {
		alloc.Put(dataset.PartKey{Dataset: dataset.ID(i), Index: 0}, 1<<22, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each Put of a 4 MB partition forces one eviction decision.
		alloc.Put(dataset.PartKey{Dataset: dataset.ID(1000 + i), Index: 0}, 1<<22, sim.VTime(i))
	}
}

type fixedAccesses int

func (f fixedAccesses) FutureAccesses(dataset.PartKey) int { return int(f) }
