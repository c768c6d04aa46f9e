package baseline

import (
	"context"
	"fmt"

	"metadataflow/internal/cluster"
	"metadataflow/internal/engine"
	"metadataflow/internal/graph"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/sim"
)

// Config describes how a family of jobs is executed.
type Config struct {
	// Cluster is the shared simulated cluster.
	Cluster *cluster.Cluster
	// MemPerWorker is the total per-worker memory budget; parallel
	// execution splits it equally among concurrent jobs (§6.1). 0 uses the
	// cluster's configured budget.
	MemPerWorker sim.Bytes
	// Policy is the eviction policy used by every job.
	Policy memorymgr.PolicyKind
	// NewScheduler builds a fresh scheduling policy per job; nil defaults
	// to BFS (the behaviour of existing systems, §4.2).
	NewScheduler func() scheduler.Policy
	// Incremental enables incremental choose evaluation in the jobs
	// (only meaningful for MDF jobs).
	Incremental bool
	// PinReused pins datasets with multiple consumers in memory, modelling
	// Spark's explicit cache() designation (§6.1 Spark (cache)).
	PinReused bool
	// Context, when non-nil, cancels every job of the family at its next
	// scheduling boundary (engine.Options.Context); mdfrun threads its
	// SIGINT/SIGTERM context through here.
	Context context.Context
}

func (c Config) engineOptions(memShare sim.Bytes) engine.Options {
	sched := scheduler.BFS()
	if c.NewScheduler != nil {
		sched = c.NewScheduler()
	}
	return engine.Options{
		Cluster:      c.Cluster,
		MemPerWorker: memShare,
		Policy:       c.Policy,
		Scheduler:    sched,
		Incremental:  c.Incremental,
		PinReused:    c.PinReused,
		Context:      c.Context,
	}
}

func (c Config) totalMem() sim.Bytes {
	if c.MemPerWorker > 0 {
		return c.MemPerWorker
	}
	return c.Cluster.Config.MemPerWorker
}

// MultiResult aggregates the execution of a family of jobs.
type MultiResult struct {
	// CompletionTime is the virtual time from the first submission to the
	// last job completion.
	CompletionTime sim.VTime
	// Jobs holds the per-job results in submission order.
	Jobs []*engine.Result
	// Metrics merges the per-job metrics.
	Metrics engine.Metrics
}

func (m *MultiResult) add(res *engine.Result) {
	m.Jobs = append(m.Jobs, res)
	if res.End > m.CompletionTime {
		m.CompletionTime = res.End
	}
	m.Metrics.Mem.Merge(&res.Metrics.Mem)
	m.Metrics.ComputeSec += res.Metrics.ComputeSec
	m.Metrics.StagesExecuted += res.Metrics.StagesExecuted
	m.Metrics.StagesPruned += res.Metrics.StagesPruned
	m.Metrics.BranchesPruned += res.Metrics.BranchesPruned
	m.Metrics.BranchesDiscarded += res.Metrics.BranchesDiscarded
	m.Metrics.DatasetsDiscarded += res.Metrics.DatasetsDiscarded
	m.Metrics.ChooseEvals += res.Metrics.ChooseEvals
	if res.Metrics.PeakLiveDatasets > m.Metrics.PeakLiveDatasets {
		m.Metrics.PeakLiveDatasets = res.Metrics.PeakLiveDatasets
	}
}

// Sequential executes the jobs one after another, each with the full
// cluster (§6.1 "sequential").
func Sequential(jobs []*graph.Graph, cfg Config) (*MultiResult, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("baseline: no jobs")
	}
	out := &MultiResult{}
	t := sim.VTime(0)
	for i, g := range jobs {
		plan, err := graph.BuildPlan(g)
		if err != nil {
			return nil, fmt.Errorf("baseline: job %d: %w", i, err)
		}
		run, err := engine.NewRun(plan, cfg.engineOptions(cfg.totalMem()), t)
		if err != nil {
			return nil, err
		}
		res, err := run.RunToCompletion()
		if err != nil {
			return nil, fmt.Errorf("baseline: job %d: %w", i, err)
		}
		out.add(res)
		t = res.End
	}
	return out, nil
}

// Parallel executes the jobs k at a time, sharing worker memory equally
// among concurrent jobs (§6.1 "4-parallel" and "8-parallel"). Job steps are
// interleaved by virtual time, so I/O and computation of different jobs
// overlap on the shared node resources.
func Parallel(jobs []*graph.Graph, k int, cfg Config) (*MultiResult, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("baseline: no jobs")
	}
	if k < 1 {
		return nil, fmt.Errorf("baseline: parallelism must be >= 1, got %d", k)
	}
	memShare := cfg.totalMem() / sim.Bytes(k)
	if memShare < 1 {
		memShare = 1
	}
	out := &MultiResult{}
	next := 0
	active := make([]*engine.Run, 0, k)

	admit := func(start sim.VTime) error {
		for len(active) < k && next < len(jobs) {
			plan, err := graph.BuildPlan(jobs[next])
			if err != nil {
				return fmt.Errorf("baseline: job %d: %w", next, err)
			}
			run, err := engine.NewRun(plan, cfg.engineOptions(memShare), start)
			if err != nil {
				return err
			}
			active = append(active, run)
			next++
		}
		return nil
	}
	if err := admit(0); err != nil {
		return nil, err
	}
	for len(active) > 0 {
		// Step the job that is earliest in virtual time.
		idx := 0
		for i, r := range active {
			if r.Now() < active[idx].Now() {
				idx = i
			}
		}
		run := active[idx]
		if !run.Step() {
			if err := run.Err(); err != nil {
				return nil, err
			}
			out.add(run.Result())
			active = append(active[:idx], active[idx+1:]...)
			if err := admit(run.Now()); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// SingleJob executes one (typically MDF) graph with the configured
// scheduler, policy and memory budget; used for the Spark (cache),
// SEEP (BFS) and SEEP (MDF) configurations of Fig. 9.
func SingleJob(g *graph.Graph, cfg Config) (*engine.Result, error) {
	plan, err := graph.BuildPlan(g)
	if err != nil {
		return nil, err
	}
	run, err := engine.NewRun(plan, cfg.engineOptions(cfg.totalMem()), 0)
	if err != nil {
		return nil, err
	}
	return run.RunToCompletion()
}
