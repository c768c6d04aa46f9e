package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"metadataflow/internal/baseline"
	"metadataflow/internal/chaos"
	"metadataflow/internal/cluster"
	"metadataflow/internal/engine"
	"metadataflow/internal/faults"
	"metadataflow/internal/graph"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/obs"
	"metadataflow/internal/plan"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/spec"
)

// runFlags are the flags of `mdf run`.
type runFlags struct {
	job, specPath, sched, policy, mode      string
	incremental, speculative, vet           bool
	workers                                 int
	memGB, seed                             int64
	trace, explain, spills                  bool
	traceJSON, metricsOut, seriesOut, fault string
}

func (o *runFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&o.job, "job", "synthetic", "workload: "+jobNames())
	fs.StringVar(&o.specPath, "spec", "", "path to a JSON MDF spec (overrides -job)")
	fs.StringVar(&o.sched, "scheduler", "bas", "stage scheduler: bas, bas-sorted, bas-random, bfs")
	fs.StringVar(&o.policy, "policy", "amm", "eviction policy: amm, lru")
	fs.BoolVar(&o.incremental, "incremental", true, "incremental choose evaluation")
	fs.IntVar(&o.workers, "workers", 8, "worker nodes")
	fs.Int64Var(&o.memGB, "mem", 10, "memory per worker in GB")
	fs.StringVar(&o.mode, "mode", "mdf", "execution mode: mdf, sequential, or parallel:<k>")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.BoolVar(&o.trace, "trace", false, "print the per-stage execution timeline")
	fs.StringVar(&o.traceJSON, "trace-json", "", "write a multi-track Chrome trace (per-node tracks and counters) to this file")
	fs.StringVar(&o.metricsOut, "metrics", "", "write the telemetry metrics snapshot as JSON to this file; mdf mode only")
	fs.StringVar(&o.seriesOut, "series", "", "write the virtual-time series document (mdf.series/v1) as JSON to this file; mdf mode only")
	fs.BoolVar(&o.explain, "explain", false, "print the decision audit log (scheduler picks, evictions, choose selections, recovery); mdf mode only")
	fs.BoolVar(&o.spills, "spills", false, "print the top spilled datasets")
	fs.BoolVar(&o.speculative, "speculative", false, "enable speculative straggler mitigation")
	fs.StringVar(&o.fault, "faults", "", "fault plan or chaos repro: inline JSON (starts with '{') or a path to a JSON file; mdf mode only")
	fs.BoolVar(&o.vet, "vet", false, "statically verify the -spec plan (internal/plan battery) against this run's cluster shape before executing; findings abort the run")
}

// runMain executes one of the paper's workload MDFs, or a JSON spec, on the
// simulated cluster with configurable scheduling and memory-management
// policies and reports the run metrics, making the ablations of §6
// reproducible from the command line.
//
//	mdf run -job timeseries -scheduler bas -policy amm -incremental
//	mdf run -job synthetic -scheduler bfs -policy lru -workers 12 -mem 4
//	mdf run -spec examples/specs/outlier.json -vet
//	mdf run -job kde -trace-json trace.json -metrics metrics.json -explain
//	mdf run -faults chaos-repro.json     # replay a chaos repro
func runMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("run", stderr)
	var o runFlags
	o.register(fs)
	if fs.Parse(args) != nil {
		return exitUsage
	}
	fplan, repro, err := loadFaults(o.fault)
	if err != nil {
		return fail(stderr, usageErrorf("bad -faults value: %v (want inline JSON starting with '{' or a path to a JSON fault plan or chaos repro)", err))
	}
	if (fplan != nil || repro != nil) && o.mode != "mdf" {
		return fail(stderr, usageErrorf("-faults is only supported in mdf mode"))
	}
	if repro != nil {
		// A repro carries its own cluster and workload; the other flags do
		// not apply.
		return replayRepro(repro, "", stdout, stderr)
	}
	ctx, stop := signalContext()
	defer stop()
	return fail(stderr, o.run(ctx, fplan, stdout, stderr))
}

// loadFaults decodes the -faults argument: inline JSON when it starts with
// '{', otherwise a file path. A chaos repro file (mdf.chaos-repro/v1) comes
// back undecoded as the second return and replaces the normal run with an
// oracle replay; anything else must be a bare fault plan.
func loadFaults(arg string) (*faults.Plan, []byte, error) {
	if arg == "" {
		return nil, nil, nil
	}
	data := []byte(arg)
	if !strings.HasPrefix(strings.TrimSpace(arg), "{") {
		var err error
		if data, err = os.ReadFile(arg); err != nil {
			return nil, nil, err
		}
	}
	if chaos.IsRepro(data) {
		return nil, data, nil
	}
	p, err := faults.Parse(data)
	return p, nil, err
}

// vetSpec verifies s against the cluster this run would actually use, so a
// memfeasible finding is a proof the run cannot fit.
func (o *runFlags) vetSpec(s *spec.Spec, stderr io.Writer) error {
	cfg := plan.DefaultConfig()
	cfg.Workers, cfg.MemPerWorker = o.workers, gib(o.memGB)
	res, err := plan.Verify(s, cfg)
	if err != nil {
		return err
	}
	for _, f := range res.Findings {
		fmt.Fprintf(stderr, "%s: %s\n", o.specPath, f)
	}
	if n := len(res.Findings); n > 0 {
		return fmt.Errorf("plan vetting failed: %d finding(s)", n)
	}
	return nil
}

// scheduler returns the -scheduler policy.
func (o *runFlags) scheduler() (scheduler.Policy, error) {
	switch o.sched {
	case "bas":
		return scheduler.BAS(nil), nil
	case "bas-sorted":
		return scheduler.BAS(scheduler.SortedHint(false)), nil
	case "bas-random":
		return scheduler.BAS(scheduler.RandomHint(o.seed)), nil
	case "bfs":
		return scheduler.BFS(), nil
	}
	return nil, usageErrorf("unknown scheduler %q (want bas, bas-sorted, bas-random, or bfs)", o.sched)
}

func (o *runFlags) run(ctx context.Context, fplan *faults.Plan, stdout, stderr io.Writer) error {
	var vet func(*spec.Spec) error
	if o.vet {
		if o.specPath == "" {
			return usageErrorf("-vet requires -spec (the built-in -job workloads have no spec document to verify)")
		}
		vet = func(s *spec.Spec) error { return o.vetSpec(s, stderr) }
	}
	g, err := buildGraph(o.specPath, o.job, jobScale{seed: o.seed}, vet)
	if err != nil {
		return err
	}
	ccfg := cluster.DefaultConfig()
	ccfg.Workers, ccfg.MemPerWorker = o.workers, gib(o.memGB)
	cl, err := cluster.New(ccfg)
	if err != nil {
		return err
	}
	pol, ok := map[string]memorymgr.PolicyKind{"amm": memorymgr.AMM, "lru": memorymgr.LRU}[o.policy]
	if !ok {
		return usageErrorf("unknown policy %q (want amm or lru)", o.policy)
	}
	sched, err := o.scheduler()
	if err != nil {
		return err
	}
	telemetry := o.traceJSON != "" || o.metricsOut != "" || o.seriesOut != "" || o.explain
	if o.mode != "mdf" {
		if telemetry {
			return usageErrorf("-trace-json, -metrics, -series, and -explain are only supported in mdf mode")
		}
		// The baselines of §6.1: the expanded job family, one job at a
		// time or k at a time.
		k := 1
		if o.mode != "sequential" {
			if _, err := fmt.Sscanf(o.mode, "parallel:%d", &k); err != nil || k < 1 {
				return usageErrorf("unknown mode %q (want mdf, sequential, or parallel:<k>)", o.mode)
			}
		}
		family, err := baseline.ExpandJobs(g)
		if err != nil {
			return err
		}
		res, err := baseline.Parallel(family, k, baseline.Config{Cluster: cl, Policy: pol, Context: ctx})
		if err != nil {
			return err
		}
		report(stdout, res.CompletionTime.Seconds(), &res.Metrics, len(res.Jobs))
		return nil
	}

	execPlan, err := graph.BuildPlan(g)
	if err != nil {
		return err
	}
	opts := engine.Options{
		Cluster: cl, Policy: pol, Scheduler: sched,
		Incremental: o.incremental,
		Speculative: o.speculative, Faults: fplan,
		Context: ctx,
	}
	var rec *obs.Recorder
	if telemetry || o.trace {
		rec = obs.NewRecorder()
		opts.Probe = rec
	}
	runr, err := engine.NewRun(execPlan, opts, 0)
	if err != nil {
		return err
	}
	res, runErr := runr.RunToCompletion()
	if runErr != nil {
		if !errors.Is(runErr, context.Canceled) {
			return runErr
		}
		// The partial result and telemetry stay readable; flush every
		// requested artifact before exiting 130.
		fmt.Fprintln(stderr, "mdf run: interrupted, flushing partial artifacts")
		res = runr.Result()
	}
	report(stdout, res.CompletionTime().Seconds(), &res.Metrics, 1)
	if fplan != nil {
		reportFaults(stdout, res)
	}
	if o.spills {
		entries := runr.SpillReport(10)
		if len(entries) == 0 {
			fmt.Fprintln(stdout, "\nno datasets were spilled")
		} else {
			fmt.Fprintln(stdout, "\ntop spilled datasets:")
			for _, e := range entries {
				fmt.Fprintf(stdout, "  %s\n", e)
			}
		}
	}
	if o.trace {
		fmt.Fprintln(stdout, "\ntimeline (virtual seconds):")
		if err := rec.WriteTimeline(stdout); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	for _, a := range []struct {
		path, what string
		write      func(io.Writer) error
	}{
		{o.traceJSON, "Chrome trace to %s (open in https://ui.perfetto.dev)", func(w io.Writer) error { return rec.WriteChromeTrace(w) }},
		{o.metricsOut, "metrics snapshot to %s", func(w io.Writer) error { return runr.Snapshot().WriteJSON(w) }},
		{o.seriesOut, "time-series document to %s", func(w io.Writer) error { return rec.Series(obs.DefaultBucketSec).WriteJSON(w) }},
	} {
		if a.path == "" {
			continue
		}
		if err := writeFile(a.path, a.write); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote "+a.what+"\n", a.path)
	}
	if o.explain {
		fmt.Fprintln(stdout, "\ndecision audit log:")
		if err := rec.WriteDecisions(stdout); err != nil {
			return err
		}
	}
	return runErr
}

func report(w io.Writer, completion float64, m *engine.Metrics, jobs int) {
	fmt.Fprintf(w, "completion time     %10.2f virtual seconds\n", completion)
	fmt.Fprintf(w, "jobs executed       %10d\n", jobs)
	fmt.Fprintf(w, "stages executed     %10d\n", m.StagesExecuted)
	fmt.Fprintf(w, "stages pruned       %10d\n", m.StagesPruned)
	fmt.Fprintf(w, "branches pruned     %10d\n", m.BranchesPruned)
	fmt.Fprintf(w, "branches discarded  %10d\n", m.BranchesDiscarded)
	fmt.Fprintf(w, "datasets discarded  %10d\n", m.DatasetsDiscarded)
	fmt.Fprintf(w, "peak live datasets  %10d\n", m.PeakLiveDatasets)
	fmt.Fprintf(w, "choose evaluations  %10d\n", m.ChooseEvals)
	fmt.Fprintf(w, "compute time        %10.2f virtual seconds\n", m.ComputeSec)
	fmt.Fprintf(w, "memory hit ratio    %10.4f\n", m.Mem.HitRatio())
	fmt.Fprintf(w, "bytes from memory   %10d\n", m.Mem.BytesFromMem)
	fmt.Fprintf(w, "bytes from disk     %10d\n", m.Mem.BytesFromDisk)
	fmt.Fprintf(w, "evictions           %10d\n", m.Mem.Evictions)
}

// reportFaults prints the resilience counters and any quarantined branches.
func reportFaults(w io.Writer, res *engine.Result) {
	m := &res.Metrics
	fmt.Fprintf(w, "\nfaults injected     %10d\n", m.FaultsInjected)
	fmt.Fprintf(w, "node crashes        %10d\n", m.NodeCrashes)
	fmt.Fprintf(w, "panics injected     %10d\n", m.PanicsInjected)
	fmt.Fprintf(w, "operator retries    %10d\n", m.Retries)
	fmt.Fprintf(w, "stages re-executed  %10d\n", m.StagesReExecuted)
	fmt.Fprintf(w, "parts re-derived    %10d\n", m.PartitionsRederived)
	fmt.Fprintf(w, "parts rebalanced    %10d\n", m.PartitionsRebalanced)
	fmt.Fprintf(w, "branches quarantined%10d\n", m.BranchesQuarantined)
	fmt.Fprintf(w, "recovery time       %10.2f virtual seconds\n", m.RecoverySec)
	fmt.Fprintf(w, "checkpoints written %10d (%d bytes)\n", m.Mem.Checkpoints, m.Mem.CheckpointedBytes)
	for _, q := range res.Quarantined {
		fmt.Fprintf(w, "quarantined         %s branch %d: %s\n", q.Choose, q.Branch, q.Reason)
	}
}
