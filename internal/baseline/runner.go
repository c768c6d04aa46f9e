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

// Config describes how a family of jobs is executed. Every job is a
// concrete dataflow scheduled breadth-first, the behaviour of existing
// systems (§4.2), on the cluster's memory budget.
type Config struct {
	// Cluster is the shared simulated cluster.
	Cluster *cluster.Cluster
	// Policy is the eviction policy used by every job.
	Policy memorymgr.PolicyKind
	// Context, when non-nil, cancels every job of the family at its next
	// scheduling boundary (engine.Options.Context); mdf run threads its
	// SIGINT/SIGTERM context through here.
	Context context.Context
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
	memShare := cfg.Cluster.Config.MemPerWorker / sim.Bytes(k)
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
			run, err := engine.NewRun(plan, engine.Options{
				Cluster:      cfg.Cluster,
				MemPerWorker: memShare,
				Policy:       cfg.Policy,
				Scheduler:    scheduler.BFS(),
				Context:      cfg.Context,
			}, start)
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
