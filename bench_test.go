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

	"metadataflow/internal/experiments"
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
