package experiments

import (
	"fmt"

	"metadataflow/internal/workload/kde"
)

func fig6Params(o Options, seed, totalBytes int64) kde.Params {
	p := kde.Defaults()
	p.Seed = seed
	p.VirtualBytes = totalBytes
	if o.Quick {
		p.Rows = 2000
		p.KernelNames = []string{"gaussian", "top-hat", "epanechnikov"}
		p.Bandwidths = []float64{0.1, 0.3}
		p.FitSample = 120
	}
	return p
}

// Fig6 regenerates the data profiling comparison: KDE completion time as the
// input dataset grows, under sequential, 4-parallel, 8-parallel and MDF
// execution. The MDF advantage grows with input size because the
// pre-processing scan over the input happens once instead of per job.
func Fig6(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig6",
		Title:   "Data profiling (KDE) job completion time",
		XLabel:  "input size",
		Unit:    "virtual seconds",
		Columns: strategyColumns,
	}
	// Sized so even an eighth of worker memory holds a job's input share
	// (the paper's 100 M-value dataset is small relative to its 16 GB
	// nodes); what grows with size is the repeated pre-processing scan.
	sizes := []int64{1 * gb, 2 * gb, 4 * gb, 8 * gb}
	if o.Quick {
		sizes = []int64{1 * gb, 4 * gb}
	}
	return sweep(o, t, sizes, func(size int64) string { return fmt.Sprintf("%dGB", size/gb) },
		func(size, seed int64) ([]float64, error) {
			return strategyRow(clusterConfig(8, 10*gb), fig6Params(o, seed, size), kde.BuildMDF)
		})
}
