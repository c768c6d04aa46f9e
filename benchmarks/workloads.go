package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"metadataflow/internal/cluster"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
	"metadataflow/internal/plan"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/sim"
	"metadataflow/internal/spec"
	"metadataflow/internal/workload/dnn"
	"metadataflow/internal/workload/kde"
	"metadataflow/internal/workload/synthetic"
	"metadataflow/internal/workload/timeseries"
)

// workloadInfo names a workload and sizes its rounds. Why each exists is
// recorded in BENCHMARK.json and README.md.
type workloadInfo struct {
	name     string
	perRound int // jobs per round
}

var workloadInfos = []workloadInfo{
	{"lib-kernel", 40},
	{"lib-engine", 96},
	{"serve-mem", 128},
	{"serve-durable", 64},
}

func infoFor(name string) (workloadInfo, bool) {
	for _, w := range workloadInfos {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

// The library workloads cycle over a fixed number of input seeds, so that
// dnn's per-seed training-set cache, which is never emptied, stays bounded
// however many rounds run. lib-kernel takes fewer because one cycle of its
// mix — a round — must stay short (see endToEnd).
const (
	kernelInputSeeds = 4
	engineInputSeeds = 8
)

// tenants is the number of tenants the serve workloads submit as.
const tenants = 4

// workload is the generated input of one run: the distinct jobs (on the
// serve path, their library-path twins used for reference and replay), the
// spec documents behind them, and the seeded order of each round.
type workload struct {
	info    workloadInfo
	seed    int64
	serve   bool
	durable bool
	jobs    []*libJob
	specs   [][]byte // serve only: the spec document of jobs[i]
}

// slot is one job of a round: which distinct job, and on the serve path
// which tenant submits it at which priority.
type slot struct {
	job      int
	tenant   int
	priority int
}

// round returns the jobs of round r in order. Every distinct job appears
// in proportion to its weight (n is rounded down to a multiple of the summed
// weights when it is at least that large), so rounds are comparable; the
// order, tenants and priorities come from the seed.
func (w *workload) round(r, n int) []slot {
	var cycle []int
	for i, j := range w.jobs {
		for k := 0; k < max(1, j.weight); k++ {
			cycle = append(cycle, i)
		}
	}
	if n >= len(cycle) {
		n -= n % len(cycle)
	}
	rng := rand.New(rand.NewSource(w.seed*7919 + int64(r)*104729 + 17))
	slots := make([]slot, n)
	for i := range slots {
		slots[i] = slot{job: cycle[i%len(cycle)], tenant: rng.Intn(tenants), priority: rng.Intn(3)}
	}
	rng.Shuffle(n, func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	return slots
}

// newWorkload generates the named workload's inputs from the seed.
func newWorkload(name string, seed int64) (*workload, error) {
	info, ok := infoFor(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	w := &workload{info: info, seed: seed}
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "lib-kernel":
		w.jobs = kernelJobs(rng)
	case "lib-engine":
		w.jobs = engineJobs(rng)
	case "serve-mem", "serve-durable":
		w.serve = true
		w.durable = name == "serve-durable"
		var err error
		if w.specs, err = specMixDocs(rng); err != nil {
			return nil, err
		}
		for i, doc := range w.specs {
			w.jobs = append(w.jobs, specJob(fmt.Sprintf("spec-%02d", i), doc, w.durable))
		}
	}
	return w, nil
}

// specMixDocs generates the spec mix as the JSON documents a client
// submits.
func specMixDocs(rng *rand.Rand) ([][]byte, error) {
	specs, err := specMix(rng)
	if err != nil {
		return nil, err
	}
	docs := make([][]byte, len(specs))
	for i, sp := range specs {
		if docs[i], err = json.Marshal(sp); err != nil {
			return nil, err
		}
	}
	return docs, nil
}

func basDefault() scheduler.Policy { return scheduler.BAS(nil) }

// kernelJobs are the paper's four jobs at default scale on the paper's
// cluster (8 workers x 10 GB: no memory pressure), BAS + AMM + incremental.
// The four kinds cost about 17, 32, 42 and 78 ms (timeseries, kde,
// synthetic, dnn) and never overlap. They are mixed 4:2:2:2 in that order,
// so that the median of the pooled latencies falls in the middle of the kde
// jobs and the 90th percentile in the middle of the dnn jobs: on the step
// between two kinds a quantile would read an extreme of either, and at the
// edge of a kind the cheapest or dearest of its four input seeds.
func kernelJobs(rng *rand.Rand) []*libJob {
	var jobs []*libJob
	add := func(name string, weight int, build func() (*graph.Graph, error)) {
		jobs = append(jobs, &libJob{
			name: name, weight: weight, build: build, cluster: cluster.DefaultConfig(),
			scheduler: basDefault, incremental: true,
		})
	}
	for k := 0; k < kernelInputSeeds; k++ {
		in := rng.Int63n(1 << 40)
		sp := synthetic.Defaults()
		sp.Rows, sp.OuterBranches, sp.InnerBranches, sp.Seed = 20000, 5, 5, in
		add(fmt.Sprintf("synthetic/%d", k), 2, func() (*graph.Graph, error) { return synthetic.BuildMDF(sp) })
		kp := kde.Defaults()
		kp.Seed = in
		add(fmt.Sprintf("kde/%d", k), 2, func() (*graph.Graph, error) { return kde.BuildMDF(kp) })
		tp := timeseries.Defaults()
		tp.Seed = in
		add(fmt.Sprintf("timeseries/%d", k), 4, func() (*graph.Graph, error) { return timeseries.BuildMDF(tp) })
		dp := dnn.Defaults()
		dp.Seed = in
		add(fmt.Sprintf("dnn/%d", k), 2, func() (*graph.Graph, error) { return dnn.BuildEarlyChooseMDF(dp) })
	}
	return jobs
}

// engineJobs have many branches and almost no rows: a 120-branch nested
// synthetic MDF under constant AMM eviction (4 GB per worker against 16 GB
// of input), and a flat 256-branch masking explore run once with top-4
// (incremental discard) and once with first-4 under a sorted hint and a
// monotone evaluator (Tab. 1 pruning).
func engineJobs(rng *rand.Rand) []*libJob {
	cfg := cluster.DefaultConfig()
	cfg.MemPerWorker = 4 << 30
	var windows []int
	var thresholds []float64
	for i := 0; i < 16; i++ {
		windows = append(windows, 2+i)
		thresholds = append(thresholds, 1+0.0005*float64(i+1))
	}
	var jobs []*libJob
	for k := 0; k < engineInputSeeds; k++ {
		in := rng.Int63n(1 << 40)
		sp := synthetic.Defaults()
		sp.Rows, sp.OuterBranches, sp.InnerBranches, sp.Seed = 64, 10, 12, in
		jobs = append(jobs, &libJob{
			name:    fmt.Sprintf("synthetic-120/%d", k),
			build:   func() (*graph.Graph, error) { return synthetic.BuildMDF(sp) },
			cluster: cfg, scheduler: basDefault, incremental: true,
		})
		tp := timeseries.Defaults()
		tp.Rows, tp.WindowLengths, tp.Thresholds, tp.Seed = 100, windows, thresholds, in
		jobs = append(jobs, &libJob{
			name:    fmt.Sprintf("flat-256-top4/%d", k),
			build:   func() (*graph.Graph, error) { return timeseries.BuildFlatMDF(tp, mdf.TopK(4), false) },
			cluster: cfg, scheduler: basDefault, incremental: true,
		})
		jobs = append(jobs, &libJob{
			name: fmt.Sprintf("flat-256-first4/%d", k),
			build: func() (*graph.Graph, error) {
				return timeseries.BuildFlatMDF(tp, mdf.KThreshold(4, tp.MaskKeepRatio, false), true)
			},
			cluster:     cfg,
			scheduler:   func() scheduler.Policy { return scheduler.BAS(scheduler.SortedHint(false)) },
			incremental: true,
		})
	}
	return jobs
}

// serviceCluster is the per-job cluster of a service with the default
// configuration, which is what the serve workloads run.
func serviceCluster() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Workers = 4
	cfg.MemPerWorker = 256 << 20
	return cfg
}

// serviceVet is the plan-verifier configuration such a service vets
// submissions against.
func serviceVet() plan.Config {
	shape := serviceCluster()
	return plan.Config{
		Workers: shape.Workers, MemPerWorker: shape.MemPerWorker,
		TenantQuota: 2 * sim.Bytes(shape.Workers) * shape.MemPerWorker,
	}
}

// specJob is the library-path twin of a submitted spec: compiled and run
// with the options the service's step loop uses, so that its selections and
// virtual completion time are what GET /jobs/{id} must answer.
func specJob(name string, doc []byte, durable bool) *libJob {
	return &libJob{
		name: name,
		build: func() (*graph.Graph, error) {
			sp, err := spec.Parse(doc)
			if err != nil {
				return nil, err
			}
			return sp.Compile()
		},
		cluster:    serviceCluster(),
		scheduler:  basDefault,
		checkpoint: durable,
		recorded:   true,
		doc:        doc,
	}
}

// specMixSize is the number of distinct specs of the serve workloads.
const specMixSize = 64

// specMix generates the spec documents of the serve workloads: small nested
// explores whose wide operators cut each job into roughly 40 to 100 stages.
// The mix is stratified: whatever the seed, it holds the same multiset of
// branch counts, row counts, input sizes, distributions, operators,
// evaluators and selectors, so that two seeds load the layers alike; the
// seed decides how those combine, every operator parameter and the input
// data.
func specMix(rng *rand.Rand) ([]*spec.Spec, error) {
	// draw deals the values 0..n-1 over the specs as evenly as 64 allows,
	// in a seeded order.
	draw := func(n int) []int {
		p := rng.Perm(specMixSize)
		for i := range p {
			p[i] %= n
		}
		return p
	}
	rowRank := rng.Perm(specMixSize)
	distributions := []string{"normal", "uniform", "bimodal"}
	filters := []string{"filter-absless", "filter-less", "filter-greater"}
	innerEvals := []string{"size", "ratio", "mean", "stddev", "neg-mean-abs"}
	outerEvals := []string{"mean", "stddev", "neg-mean-abs", "size"}
	selectors := []spec.Selector{{Kind: "max"}, {Kind: "min"}, {Kind: "topk", K: 2}, {Kind: "bottomk", K: 2}}
	wides := []string{"standardize", "normalize"}
	folds := []string{"square", "abs"}
	sizeOf, distOf, filterOf := draw(8), draw(len(distributions)), draw(len(filters))
	innerEvalOf, outerEvalOf := draw(len(innerEvals)), draw(len(outerEvals))
	innerSelOf, outerSelOf := draw(len(selectors)), draw(3) // outer: max, min or top-2, it has >= 3 branches
	wideOf, foldOf := draw(len(wides)), draw(len(folds))

	specs := make([]*spec.Spec, specMixSize)
	for i := range specs {
		outer := 3 + i%4     // 3..6 outer branches
		inner := 3 + (i/4)%3 // 3..5 inner branches
		filter := filters[filterOf[i]]

		innerBranches := make([]spec.Branch, inner)
		limit0, step := 0.3+0.3*rng.Float64(), 0.15+0.2*rng.Float64()
		for b := range innerBranches {
			limit := limit0 + step*float64(b)
			if filter == "filter-less" {
				limit -= 0.2 // standardized values straddle 0
			} else if filter == "filter-greater" {
				limit = -limit
			}
			innerBranches[b] = spec.Branch{
				Label:  fmt.Sprintf("limit=%.3f", limit),
				Params: map[string]float64{"limit": limit},
			}
		}
		outerBranches := make([]spec.Branch, outer)
		a0, astep := 0.5+rng.Float64(), 0.25+0.5*rng.Float64()
		for b := range outerBranches {
			a := a0 + astep*float64(b)
			outerBranches[b] = spec.Branch{
				Label:  fmt.Sprintf("a=%.3f", a),
				Params: map[string]float64{"a": a},
			}
		}
		op := func(name, fn string) spec.Step { return spec.Step{Op: &spec.OpStep{Name: name, Fn: fn}} }

		innerExplore := spec.Step{Explore: &spec.ExploreStep{
			Name:     "inner",
			Branches: innerBranches,
			Body: []spec.Step{
				{Op: &spec.OpStep{Name: "keep", Fn: filter, ParamKey: "limit", CostPerMB: 0.002}},
				op("rescale", "standardize"),
				op("fold", folds[foldOf[i]]),
			},
			Choose: spec.Choose{
				Evaluator: innerEvals[innerEvalOf[i]],
				Selector:  selectors[innerSelOf[i]],
				CostPerMB: 0.0005,
			},
		}}
		outerExplore := spec.Step{Explore: &spec.ExploreStep{
			Name:     "outer",
			Branches: outerBranches,
			Body: []spec.Step{
				{Op: &spec.OpStep{Name: "scale", Fn: "affine", A: 1, B: rng.Float64() - 0.5, ParamKey: "a", CostPerMB: 0.002}},
				op("center", "standardize"),
				innerExplore,
				op("magnitude", "abs"),
				op("spread", wides[wideOf[i]]),
			},
			Choose: spec.Choose{
				Evaluator: outerEvals[outerEvalOf[i]],
				Selector:  selectors[outerSelOf[i]],
				CostPerMB: 0.0005,
			},
		}}
		sp := &spec.Spec{
			Name: fmt.Sprintf("mix-%02d", i),
			Source: spec.Source{
				Rows:         64 + rowRank[i]*192/(specMixSize-1),
				Partitions:   4,
				VirtualBytes: int64(16+8*sizeOf[i]) << 20,
				Distribution: distributions[distOf[i]],
				Seed:         rng.Int63n(1 << 40),
			},
			Pipeline: []spec.Step{op("prep", "standardize"), outerExplore, op("sink", "identity")},
		}
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("generated spec %d: %w", i, err)
		}
		specs[i] = sp
	}
	return specs, nil
}
