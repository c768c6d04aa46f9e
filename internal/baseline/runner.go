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
	// scheduling boundary (engine.Options.Context); mdf run threads its
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

// Parallel executes the jobs k at a time, sharing worker memory equally
// among concurrent jobs (§6.1 "4-parallel" and "8-parallel"); k = 1 is the
// paper's "sequential" strategy, each job with the full cluster and started
// when its predecessor ends. Job steps are interleaved by virtual time, so
// I/O and computation of different jobs overlap on the shared node
// resources.
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
	type activeJob struct {
		id  int
		run *engine.Run
	}
	active := make([]activeJob, 0, k)

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
			active = append(active, activeJob{next, run})
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
		for i, a := range active {
			if a.run.Now() < active[idx].run.Now() {
				idx = i
			}
		}
		job := active[idx]
		if !job.run.Step() {
			if err := job.run.Err(); err != nil {
				return nil, fmt.Errorf("baseline: job %d: %w", job.id, err)
			}
			out.add(job.run.Result())
			active = append(active[:idx], active[idx+1:]...)
			if err := admit(job.run.Now()); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// SingleJob executes one (typically MDF) graph alone from time 0 with the
// configured scheduler, policy and full memory budget.
func SingleJob(g *graph.Graph, cfg Config) (*engine.Result, error) {
	return engine.Execute(g, cfg.engineOptions(cfg.totalMem()))
}
