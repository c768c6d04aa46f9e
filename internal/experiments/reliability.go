package experiments

import (
	"fmt"
	"strconv"

	"metadataflow/internal/cluster"
	"metadataflow/internal/engine"
	"metadataflow/internal/faults"
	"metadataflow/internal/graph"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/obs"
	"metadataflow/internal/stats"
	"metadataflow/internal/workload/synthetic"
)

// resilienceRun executes the synthetic job p as one job under cfg on the
// 8 × 10 GB testbed of the §5 experiments and returns the finished run with
// its completion time in virtual seconds. adjust may set further engine
// options, or prepare the fresh cluster, before the run starts.
func resilienceRun(p synthetic.Params, cfg jobConfig, adjust func(*engine.Options)) (*engine.Run, float64, error) {
	g, err := synthetic.BuildMDF(p)
	if err != nil {
		return nil, 0, err
	}
	cl, err := cluster.New(clusterConfig(8, 10*gb))
	if err != nil {
		return nil, 0, err
	}
	plan, err := graph.BuildPlan(g)
	if err != nil {
		return nil, 0, err
	}
	opts := cfg.options(cl)
	adjust(&opts)
	r, err := engine.NewRun(plan, opts, 0)
	if err != nil {
		return nil, 0, err
	}
	v, err := seconds(r.RunToCompletion())
	return r, v, err
}

// Stragglers quantifies the §5 discussion of straggling workers: without
// mitigation a straggler gates every stage it participates in, slowing the
// job by about its slow factor; with speculative re-execution (the
// "existing mechanisms" the paper leverages, modelled as capacity-weighted
// compute rebalancing) the job degrades only by the lost capacity share.
func Stragglers(o Options) (*Table, error) {
	t := &Table{
		ID:      "stragglers",
		Title:   "MDF completion time with one straggling worker",
		XLabel:  "slow factor",
		Unit:    "virtual seconds",
		Columns: []string{"SEEP (MDF)", "relative", "MDF + speculation", "relative (spec.)"},
	}
	// Factor 1 comes first: the healthy cluster's unmitigated average is
	// the denominator of both relative columns.
	factors := []float64{1, 1.5, 2, 4, 8}
	if o.Quick {
		factors = []float64{1, 4}
	}
	_, err := sweep(o, t, factors, func(f float64) string { return fmt.Sprintf("%gx", f) },
		func(slow float64, seed int64) ([]float64, error) {
			return eachColumn([]bool{false, true}, func(speculative bool) (float64, error) {
				_, v, err := resilienceRun(syntheticJob(o, seed, 1200, 500, 8*gb), fullMDF, func(opts *engine.Options) {
					opts.Cluster.Nodes[0].SlowFactor = slow
					opts.Speculative = speculative
				})
				return v, err
			})
		})
	if err != nil {
		return nil, err
	}
	base := t.Rows[0].Cells[0].Avg
	relOf := func(s stats.Summary) stats.Summary {
		return stats.Summary{Min: s.Min / base, Avg: s.Avg / base, Max: s.Max / base}
	}
	for i, r := range t.Rows {
		plain, spec := r.Cells[0], r.Cells[1]
		t.Rows[i].Cells = []stats.Summary{plain, relOf(plain), spec, relOf(spec)}
	}
	return t, nil
}

// Recovery quantifies the §5 fault-tolerance mechanism: a node failure
// mid-exploration loses the node's resident partitions, but the choose
// scores checkpointed at the master avoid re-executing branches — only
// re-reads from the checkpoints on disk are charged, and on CPU-bound
// stages those reads hide under computation entirely ("the result can be
// recovered from the master rather than executing entire branches").
func Recovery(o Options) (*Table, error) {
	t := &Table{
		ID:      "recovery",
		Title:   "MDF completion time with a node failure mid-exploration",
		XLabel:  "failure point (stages executed)",
		Unit:    "virtual seconds",
		Columns: []string{"clean run", "with failure", "overhead"},
	}
	points := []int{5, 15, 25}
	if o.Quick {
		points = []int{5}
	}
	_, err := sweep(o, t, points, strconv.Itoa, func(failAfter int, seed int64) ([]float64, error) {
		// Column 0 is the clean run (no crash), column 1 loses node 0 once
		// failAfter stages have executed.
		return eachColumn([]int{0, failAfter}, func(crashAt int) (float64, error) {
			_, v, err := resilienceRun(syntheticJob(o, seed, 1200, 500, 8*gb), fullMDF, func(opts *engine.Options) {
				opts.Checkpoint = true
				if crashAt > 0 {
					opts.Faults = &faults.Plan{Crashes: []faults.Crash{{Node: 0, AfterStages: crashAt}}}
				}
			})
			return v, err
		})
	})
	if err != nil {
		return nil, err
	}
	for i, r := range t.Rows {
		clean, failed := r.Cells[0], r.Cells[1]
		t.Rows[i].Cells = append(r.Cells, stats.Summary{
			Min: failed.Min - clean.Avg, Avg: failed.Avg - clean.Avg, Max: failed.Max - clean.Avg,
		})
	}
	return t, nil
}

// checkFaultSnapshot validates a faulty run against its telemetry snapshot:
// the injected-fault counters must show the plan actually fired, and the
// recovery counters must be self-consistent (re-derived partitions carry
// re-derived bytes; every node crash appears in the fault history).
func checkFaultSnapshot(s *obs.Snapshot, plan *faults.Plan) error {
	counter := func(name string) int64 {
		v, _ := s.CounterValue(name)
		return v
	}
	if counter("faults.injected") == 0 {
		return fmt.Errorf("fault plan fired no faults (snapshot faults.injected = 0)")
	}
	crashes := counter("faults.node_crashes")
	if len(plan.Crashes) > 0 && crashes == 0 {
		return fmt.Errorf("fault plan has %d crashes but snapshot faults.node_crashes = 0", len(plan.Crashes))
	}
	if rederived := counter("faults.partitions_rederived"); rederived > 0 && counter("faults.rederived_bytes") == 0 {
		return fmt.Errorf("snapshot re-derived %d partitions but faults.rederived_bytes = 0", rederived)
	}
	var history int64
	for _, ev := range s.Faults {
		if ev.Kind == "crash" {
			history++
		}
	}
	if history != crashes {
		return fmt.Errorf("snapshot fault history records %d crashes, counter says %d", history, crashes)
	}
	return nil
}

// Reliability sweeps a seeded fault plan — repeated node crashes plus one
// panicking evaluator — against the fault rate, for every combination of
// eviction policy (LRU vs AMM) and scheduler (BFS vs BAS). Each cell is the
// recovery overhead: the completion time of the faulty run minus that of a
// fault-free run of the same configuration (both with durable-copy
// awareness enabled). AMM's anticipatory checkpointing writes durable
// copies of consumed intermediates in the background, so a crash only costs
// checkpoint re-reads; LRU keeps everything in volatile memory and must
// re-derive the lost partitions by re-executing their producing stages,
// which makes its recovery strictly more expensive at every fault rate.
func Reliability(o Options) (*Table, error) {
	configs := []jobConfig{
		{name: "LRU+BFS", policy: memorymgr.LRU, newSched: bfs, incremental: true},
		{name: "AMM+BFS", policy: memorymgr.AMM, newSched: bfs, incremental: true},
		{name: "LRU+BAS", policy: memorymgr.LRU, newSched: bas, incremental: true},
		{name: "AMM+BAS", policy: memorymgr.AMM, newSched: bas, incremental: true},
	}
	t := &Table{
		ID:      "reliability",
		Title:   "Recovery overhead under repeated node crashes + evaluator panics",
		XLabel:  "node crashes",
		Unit:    "virtual seconds of overhead",
		Columns: columnNames(configs),
	}
	rates := []int{1, 2, 3}
	if o.Quick {
		rates = []int{1, 2}
	}
	run := func(seed int64, cfg jobConfig, plan *faults.Plan) (float64, error) {
		p := syntheticJob(o, seed, 1200, 500, 8*gb)
		// Compute-dominant stages (§5): re-executing a producing stage must
		// cost more than re-reading its checkpoint from disk, which is what
		// makes anticipatory checkpoints pay off.
		p.OpsPerItem = 16
		r, v, err := resilienceRun(p, cfg, func(opts *engine.Options) {
			opts.Checkpoint = true
			opts.Faults = plan
		})
		if err != nil {
			return 0, err
		}
		if plan != nil {
			// A fault plan that silently fails to fire would make the
			// overhead column measure noise. The telemetry snapshot is the
			// supported surface for this check — the same counters mdf run
			// -metrics emits — so validate through it rather than reaching
			// into engine internals.
			if err := checkFaultSnapshot(r.Snapshot(), plan); err != nil {
				return 0, fmt.Errorf("reliability: seed %d: %w", seed, err)
			}
		}
		return v, nil
	}
	return sweep(o, t, rates, strconv.Itoa, func(rate int, seed int64) ([]float64, error) {
		return eachColumn(configs, func(cfg jobConfig) (float64, error) {
			clean, err := run(seed, cfg, nil)
			if err != nil {
				return 0, err
			}
			plan, err := faults.Generate(faults.GenConfig{
				Seed: seed, Workers: 8, Crashes: rate, EvalPanics: 1, MaxStage: 4,
			})
			if err != nil {
				return 0, err
			}
			faulty, err := run(seed, cfg, plan)
			if err != nil {
				return 0, err
			}
			return faulty - clean, nil
		})
	})
}
