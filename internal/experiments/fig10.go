package experiments

import (
	"strconv"

	"metadataflow/internal/cluster"
	"metadataflow/internal/engine"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/workload/synthetic"
)

// Figs. 10–18 (§6.2–6.4) are one ablation — the synthetic MDF under {LRU,
// AMM} × {incremental choose on, off}, always BAS-scheduled — swept along
// five x-axes and read through four metrics. The sweeps, the variants and
// the metrics are each written down once; a figure is a pairing of them.

// policyVariants are the ablation's four configurations; LRU comes first
// because the relative metric divides by it.
func policyVariants() []jobConfig {
	return []jobConfig{
		{name: "LRU", policy: memorymgr.LRU, newSched: bas},
		{name: "AMM", policy: memorymgr.AMM, newSched: bas},
		{name: "LRU+incremental", policy: memorymgr.LRU, newSched: bas, incremental: true},
		{name: "AMM+incremental", policy: memorymgr.AMM, newSched: bas, incremental: true},
	}
}

// ablationSweep is one x-axis: its values (full, then quick) and, for a
// value and a seed, the synthetic job and the cluster it runs on.
type ablationSweep struct {
	xLabel      string
	full, quick []int
	point       func(o Options, x int, seed int64) (synthetic.Params, cluster.Config)
}

// fixedJob is the 5 × 5-branch, 16 GB job of the sweeps that vary something
// other than the input.
func fixedJob(o Options, seed int64) synthetic.Params {
	p := syntheticJob(o, seed, 1200, 500, 16*gb)
	p.OuterBranches, p.InnerBranches = 5, 5
	return p
}

var (
	// workerSweep grows the cluster from 2 to 12 workers with the input
	// per worker constant at 2 GB (§6.2).
	workerSweep = ablationSweep{"workers", []int{2, 4, 6, 8, 10, 12}, []int{2, 4},
		func(o Options, w int, seed int64) (synthetic.Params, cluster.Config) {
			p := syntheticJob(o, seed, 250*w, 80*w, int64(w)*2*gb)
			p.Partitions = w
			return p, clusterConfig(w, 4*gb)
		}}
	// dataSizeSweep grows the input from 2 to 9 GB per worker with 10 GB
	// of memory per worker (§6.2).
	dataSizeSweep = ablationSweep{"GB/worker", []int{2, 3, 4, 5, 6, 7, 8, 9}, []int{2, 6},
		func(o Options, perWorkerGB int, seed int64) (synthetic.Params, cluster.Config) {
			p := syntheticJob(o, seed, 2000, 600, int64(perWorkerGB)*8*gb)
			p.Partitions = 8
			return p, clusterConfig(8, 10*gb)
		}}
	// topologySweep grows the outer branching factor |B1| while |B1 × B2|
	// stays fixed at the highly composite 120 (§6.3), or 12 in quick mode.
	topologySweep = ablationSweep{"|B1|", []int{2, 3, 4, 6, 10, 20, 40, 60}, []int{2, 3, 6},
		func(o Options, outer int, seed int64) (synthetic.Params, cluster.Config) {
			p := syntheticJob(o, seed, 1200, 500, 16*gb)
			p.OuterBranches, p.InnerBranches = outer, 120/outer
			if o.Quick {
				p.InnerBranches = 12 / outer
			}
			return p, clusterConfig(8, 6*gb)
		}}
	// costSweep grows the per-item processing cost (§6.4).
	costSweep = ablationSweep{"ops/item", []int{1, 4, 16, 64, 256}, []int{1, 64},
		func(o Options, ops int, seed int64) (synthetic.Params, cluster.Config) {
			p := fixedJob(o, seed)
			p.OpsPerItem = ops
			return p, clusterConfig(8, 6*gb)
		}}
	// memorySweep grows the memory per worker under a fixed input (§6.4).
	memorySweep = ablationSweep{"GB/worker", []int{1, 2, 4, 6, 8, 12, 16, 24}, []int{2, 24},
		func(o Options, memGB int, seed int64) (synthetic.Params, cluster.Config) {
			return fixedJob(o, seed), clusterConfig(8, int64(memGB)*gb)
		}}
)

// ablationMetric reads one number off a variant's run. lru is the LRU run of
// the same point and seed; a metric relative to it has no LRU column.
type ablationMetric struct {
	unit     string
	relative bool
	value    func(p synthetic.Params, res, lru *engine.Result) float64
}

var (
	rateMetric = ablationMetric{unit: "MB/s", value: func(p synthetic.Params, res, _ *engine.Result) float64 {
		return float64(p.VirtualBytes) / 1e6 / res.CompletionTime().Seconds()
	}}
	timeMetric = ablationMetric{unit: "virtual seconds", value: func(_ synthetic.Params, res, _ *engine.Result) float64 {
		return res.CompletionTime().Seconds()
	}}
	hitRatioMetric = ablationMetric{unit: "ratio", value: func(_ synthetic.Params, res, _ *engine.Result) float64 {
		return res.Metrics.Mem.HitRatio()
	}}
	relativeMetric = ablationMetric{unit: "x of LRU", relative: true, value: func(_ synthetic.Params, res, lru *engine.Result) float64 {
		return (res.CompletionTime() / lru.CompletionTime()).Seconds()
	}}
)

// ablationFigure regenerates one of Figs. 10–18: every point of the sweep
// runs the four variants once per seed, and each column reads the metric
// off its variant's run.
func ablationFigure(o Options, id, title string, s ablationSweep, m ablationMetric) (*Table, error) {
	variants := policyVariants()
	first := 0 // the first variant that is a column
	if m.relative {
		first = 1
	}
	t := &Table{ID: id, Title: title, XLabel: s.xLabel, Unit: m.unit, Columns: columnNames(variants[first:])}
	xs := s.full
	if o.Quick {
		xs = s.quick
	}
	return sweep(o, t, xs, strconv.Itoa, func(x int, seed int64) ([]float64, error) {
		p, ccfg := s.point(o, x, seed)
		runs := make([]*engine.Result, len(variants))
		for i, v := range variants {
			g, err := synthetic.BuildMDF(p)
			if err != nil {
				return nil, err
			}
			if runs[i], err = v.run(g, ccfg); err != nil {
				return nil, err
			}
		}
		var row []float64
		for _, res := range runs[first:] {
			row = append(row, m.value(p, res, runs[0]))
		}
		return row, nil
	})
}

// Fig10: the rate at which the aggregate input is processed as workers grow.
func Fig10(o Options) (*Table, error) {
	return ablationFigure(o, "fig10", "Processing rate vs number of workers", workerSweep, rateMetric)
}

// Fig11: completion time as the input per worker grows.
func Fig11(o Options) (*Table, error) {
	return ablationFigure(o, "fig11", "Completion time vs dataset size per worker", dataSizeSweep, timeMetric)
}

// Fig12: incremental choose helps most when the inner factor is high
// (datasets are discarded early), AMM when the outer factor is high (the
// explore input is reused more often).
func Fig12(o Options) (*Table, error) {
	return ablationFigure(o, "fig12", "Completion time vs outer branching factor (|B1×B2| fixed)", topologySweep, timeMetric)
}

// Fig13: the hit ratio is unaffected by the worker count because the input
// per worker is constant.
func Fig13(o Options) (*Table, error) {
	return ablationFigure(o, "fig13", "Memory hit ratio vs number of workers", workerSweep, hitRatioMetric)
}

// Fig14 is the memory-hit-ratio companion of Fig11.
func Fig14(o Options) (*Table, error) {
	return ablationFigure(o, "fig14", "Memory hit ratio vs dataset size per worker", dataSizeSweep, hitRatioMetric)
}

// Fig15 is the memory-hit-ratio companion of Fig12.
func Fig15(o Options) (*Table, error) {
	return ablationFigure(o, "fig15", "Memory hit ratio vs outer branching factor (|B1×B2| fixed)", topologySweep, hitRatioMetric)
}

// Fig16: as the job becomes compute-bound, the I/O savings of AMM and
// incremental evaluation matter less and the curves converge towards 1.
func Fig16(o Options) (*Table, error) {
	return ablationFigure(o, "fig16", "Relative completion time vs processing cost (normalised to LRU)", costSweep, relativeMetric)
}

// Fig17: with little memory AMM+incremental wins clearly; as everything
// fits, all approaches converge.
func Fig17(o Options) (*Table, error) {
	return ablationFigure(o, "fig17", "Relative completion time vs memory per worker (normalised to LRU)", memorySweep, relativeMetric)
}

// Fig18: all four variants converge to 1 as memory grows, with LRU needing
// the most memory to get there.
func Fig18(o Options) (*Table, error) {
	return ablationFigure(o, "fig18", "Memory hit ratio vs memory per worker", memorySweep, hitRatioMetric)
}
