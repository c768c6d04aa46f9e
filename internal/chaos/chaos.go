// Package chaos is the deterministic simulation-testing harness of the
// runtime, in the FoundationDB style: the engine is a seeded discrete-event
// simulator, so the harness can generate thousands of randomized trials —
// a random cluster shape, a random synthetic MDF, a random fault plan — and
// replay any failing one bit-for-bit from its seed. Each trial runs the
// workload twice, fault-free (golden) and faulted, and checks a battery of
// invariant oracles (oracles.go) over the pair. On a violation, a
// delta-debugging shrinker (shrink.go) minimizes the fault plan while the
// violation reproduces and writes a self-contained repro file (repro.go)
// replayable via mdf run -faults or mdf chaos -replay.
package chaos

import (
	"fmt"
	"hash/fnv"
	"io"

	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/engine"
	"metadataflow/internal/faults"
	"metadataflow/internal/graph"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/obs"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/sim"
	"metadataflow/internal/stats"
	"metadataflow/internal/workload/synthetic"
)

// TrialSpec is the complete, JSON-serializable description of one chaos
// trial: everything needed to rebuild the cluster, the workload and the
// fault plan deterministically. A repro file embeds one.
type TrialSpec struct {
	// Seed identifies the trial (informational; the spec itself is already
	// fully concrete).
	Seed int64 `json:"seed"`
	// Workers is the cluster size.
	Workers int `json:"workers"`
	// MemPerWorkerMB is the per-worker dataset memory budget in MiB. Trials
	// draw it near the workload's per-worker data share to exercise
	// near-OOM eviction behaviour.
	MemPerWorkerMB int64 `json:"memPerWorkerMB"`
	// Policy is the eviction policy, as memorymgr.ParsePolicy reads it:
	// "LRU" or "AMM".
	Policy string `json:"policy"`
	// Scheduler is the scheduling policy, as scheduler.Parse reads it:
	// "bas" or "bfs" in generated trials.
	Scheduler string `json:"scheduler"`
	// Incremental, PinReused and Speculative mirror engine.Options.
	Incremental bool `json:"incremental"`
	PinReused   bool `json:"pinReused"`
	Speculative bool `json:"speculative"`
	// Workload parameterises the synthetic nested-explore MDF (§6, Fig. 23).
	Workload synthetic.Params `json:"workload"`
	// Faults is the fault plan of the faulted run; the golden run omits it.
	Faults *faults.Plan `json:"faults,omitempty"`
}

// MemPerWorker returns the budget as accounted bytes.
func (s *TrialSpec) MemPerWorker() sim.Bytes { return sim.Bytes(s.MemPerWorkerMB) << 20 }

// Validate checks the spec is executable.
func (s *TrialSpec) Validate() error {
	if s.Workers < 1 {
		return fmt.Errorf("chaos: trial needs at least one worker, have %d", s.Workers)
	}
	if s.MemPerWorkerMB < 1 {
		return fmt.Errorf("chaos: trial needs a positive memory budget, have %d MiB", s.MemPerWorkerMB)
	}
	if _, err := memorymgr.ParsePolicy(s.Policy); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	if _, err := scheduler.Parse(s.Scheduler, s.Seed); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	if err := s.Workload.Validate(); err != nil {
		return err
	}
	if s.Faults != nil {
		return s.Faults.ValidateFor(s.Workers)
	}
	return nil
}

// GenTrialSpec derives trial number `trial` of the sweep seeded with
// sweepSeed. Every field is drawn from an RNG derived from (sweepSeed,
// trial), so a sweep is reproducible trial-by-trial and two sweeps with the
// same seed are identical.
func GenTrialSpec(sweepSeed int64, trial int) (TrialSpec, error) {
	rng := stats.NewRNG(sweepSeed).Derive(fmt.Sprintf("trial-%d", trial))
	workers := 2 + rng.Intn(7) // 2..8
	outer := 2 + rng.Intn(3)   // 2..4
	inner := 2 + rng.Intn(3)
	// Partitions may undershoot the worker count so some trials place the
	// sole copy of a partition on a single crashing node.
	partitions := 1 + rng.Intn(2*workers)
	virtualMB := int64(64 + rng.Intn(448)) // 64..511 MiB of accounted input

	spec := TrialSpec{
		Seed:        sweepSeed,
		Workers:     workers,
		Policy:      []string{"LRU", "AMM"}[rng.Intn(2)],
		Scheduler:   []string{"bas", "bfs"}[rng.Intn(2)],
		Incremental: rng.Intn(2) == 0,
		PinReused:   rng.Intn(2) == 0,
		Speculative: rng.Intn(2) == 0,
		Workload: synthetic.Params{
			Rows:           200 + rng.Intn(600),
			Partitions:     partitions,
			VirtualBytes:   virtualMB << 20,
			OuterBranches:  outer,
			InnerBranches:  inner,
			OpsPerItem:     1 + rng.Intn(4),
			InnerSizeScale: 0.25 + 0.75*rng.Float64(),
			Seed:           int64(trial) + 1,
		},
	}
	// Near-OOM budget: between half and triple the per-worker share of the
	// accounted input, floored so tiny shares stay executable.
	share := virtualMB / int64(workers)
	memMB := int64(float64(share) * (0.5 + 2.5*rng.Float64()))
	if memMB < 8 {
		memMB = 8
	}
	spec.MemPerWorkerMB = memMB

	crashes := rng.Intn(4)
	permanent := 0
	if crashes > 0 && workers > 2 {
		permanent = rng.Intn(crashes + 1)
	}
	// The crash trigger bound tracks the workload's stage count so most
	// crashes land mid-run, including inside choose/recovery windows.
	maxStage := outer*(inner+2) + 2
	plan, err := faults.Generate(faults.GenConfig{
		Seed:       rng.Int63(),
		Workers:    workers,
		Crashes:    crashes,
		Permanent:  permanent,
		Correlated: rng.Intn(2),
		Repeats:    rng.Intn(2),
		EvalPanics: rng.Intn(3),
		// PanicTimes stays below the default 3-attempt retry budget so every
		// injected panic is recoverable and the faulted run must still reach
		// the golden result.
		PanicTimes:      1 + rng.Intn(2),
		TransformPanics: rng.Intn(2),
		Slowdowns:       rng.Intn(3),
		DiskFaults:      rng.Intn(3),
		MaxFactor:       1.5 + 6*rng.Float64(),
		WindowSec:       20 + 100*rng.Float64(),
		MaxStage:        maxStage,
	})
	if err != nil {
		return TrialSpec{}, err
	}
	spec.Faults = plan
	return spec, nil
}

// Outcome is everything the oracles inspect about one run of a trial.
type Outcome struct {
	// Err is the run's terminal error, nil on success. The remaining fields
	// are only meaningful when Err is nil.
	Err error
	// Completion is the job's virtual completion time.
	Completion sim.VTime
	// Snapshot is the run's mdf.metrics/v1 snapshot.
	Snapshot *obs.Snapshot
	// Selections maps each choose stage's label to its selected branches.
	Selections map[string][]int
	// Checksums are the FNV-1a digests of the output partitions, in
	// partition order: the faulted run must reproduce the golden bytes.
	Checksums []uint64
	// Lineage and Accounting are the engine's self-audit violation lists.
	Lineage    []string
	Accounting []string
	// ResidentOver lists probe samples where a node's resident bytes
	// exceeded the budget (empty without a probe).
	ResidentOver []string
	// NegativeSpans counts probe spans the engine reported as ending
	// before they start.
	NegativeSpans int
	// Quarantined is the number of branches quarantined by persistent
	// operator failures; equivalence is only checked when it is zero.
	Quarantined int
}

// countingProbe wraps a Recorder and counts the task spans the engine
// reports as ending before they start, which the Recorder clamps to the
// start and so can never show in Spans().
type countingProbe struct {
	*obs.Recorder
	reversed int
}

// Span implements obs.Auditor.
func (p *countingProbe) Span(node int, kind obs.Kind, name string, start, end sim.VTime) {
	if end < start {
		p.reversed++
	}
	p.Recorder.Span(node, kind, name, start, end)
}

// checksumOutput digests each output partition's rows.
func checksumOutput(d *dataset.Dataset) []uint64 {
	if d == nil {
		return nil
	}
	out := make([]uint64, len(d.Parts))
	for i := range d.Parts {
		h := fnv.New64a()
		for _, r := range d.Parts[i].BoxedRows() {
			fmt.Fprintf(h, "%v\x1f", r)
		}
		out[i] = h.Sum64()
	}
	return out
}

// runOnce executes the spec's workload with the given fault plan (nil for
// the golden run) and observes the outcome. When probed is set, a counting
// recorder is attached so the outcome carries reversed-span and per-sample
// residency evidence.
func runOnce(spec *TrialSpec, plan *faults.Plan, probed bool) *Outcome {
	out := &Outcome{}
	g, err := synthetic.BuildMDF(spec.Workload)
	if err != nil {
		out.Err = err
		return out
	}
	gplan, err := graph.BuildPlan(g)
	if err != nil {
		out.Err = err
		return out
	}
	cfg := cluster.DefaultConfig()
	cfg.Workers = spec.Workers
	cfg.MemPerWorker = spec.MemPerWorker()
	cl, err := cluster.New(cfg)
	if err != nil {
		out.Err = err
		return out
	}
	policy, err := memorymgr.ParsePolicy(spec.Policy)
	if err != nil {
		out.Err = err
		return out
	}
	sched, err := scheduler.Parse(spec.Scheduler, spec.Seed)
	if err != nil {
		out.Err = err
		return out
	}
	var probe *countingProbe
	opts := engine.Options{
		Cluster:      cl,
		MemPerWorker: spec.MemPerWorker(),
		Policy:       policy,
		Scheduler:    sched,
		Incremental:  spec.Incremental,
		PinReused:    spec.PinReused,
		Speculative:  spec.Speculative,
		Faults:       plan,
		// The golden run checkpoints too: overhead comparisons must not
		// conflate recovery cost with checkpointing cost.
		Checkpoint: true,
	}
	if probed {
		probe = &countingProbe{Recorder: obs.NewRecorder()}
		opts.Probe = probe
	}
	run, err := engine.NewRun(gplan, opts, 0)
	if err != nil {
		out.Err = err
		return out
	}
	res, err := run.RunToCompletion()
	if err != nil {
		out.Err = err
		return out
	}
	out.Completion = res.CompletionTime()
	out.Snapshot = run.Snapshot()
	out.Selections = run.ChooseSelections()
	out.Checksums = checksumOutput(res.Output)
	out.Lineage = run.AuditLineage()
	out.Accounting = run.AuditAccounting()
	out.Quarantined = res.Metrics.BranchesQuarantined
	if probe != nil {
		capacity := float64(spec.MemPerWorker())
		for _, c := range probe.CounterSamples() {
			if c.Name == "mem.resident_bytes" && c.Value > capacity {
				out.ResidentOver = append(out.ResidentOver, fmt.Sprintf(
					"node %d resident %.0f bytes > budget %.0f at t=%.3f",
					c.Node, c.Value, capacity, c.T.Seconds()))
			}
		}
		out.NegativeSpans = probe.reversed
	}
	return out
}

// TrialResult is the outcome of one complete trial.
type TrialResult struct {
	Spec       TrialSpec
	Golden     *Outcome
	Faulted    *Outcome
	Violations []Violation
}

// RunTrial executes the trial's golden and faulted runs and applies the
// oracles selected by filter (empty = all; see oracles.go for names).
func RunTrial(spec TrialSpec, filter string) (*TrialResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	golden := runOnce(&spec, nil, false)
	faulted := runOnce(&spec, spec.Faults, true)
	return &TrialResult{
		Spec:       spec,
		Golden:     golden,
		Faulted:    faulted,
		Violations: CheckOracles(&spec, golden, faulted, filter),
	}, nil
}

// violationCheck re-runs the trial with a candidate fault plan and reports
// whether the given oracle still fires — the shrinker's predicate.
func violationCheck(spec TrialSpec, oracle string) func(*faults.Plan) bool {
	return func(p *faults.Plan) bool {
		s := spec
		s.Faults = p
		res, err := RunTrial(s, oracle)
		if err != nil {
			return false
		}
		for _, v := range res.Violations {
			if v.Oracle == oracle {
				return true
			}
		}
		return false
	}
}

// SweepResult summarises a sweep.
type SweepResult struct {
	Trials     int
	Violations int
	// Repro is the repro of the first violation found, already shrunk; nil
	// when every trial passed.
	Repro *Repro
}

// Sweep runs `trials` generated trials from sweepSeed, logging one line per
// trial to out. The log uses only seeded, virtual-time data, so two sweeps
// with identical arguments produce byte-identical output — `make
// chaos-short` relies on that. On the first violation the fault plan is
// shrunk and returned as a repro; subsequent trials still run (and are
// counted) so one sweep reports the full violation tally.
func Sweep(sweepSeed int64, trials int, filter string, out io.Writer) (*SweepResult, error) {
	res := &SweepResult{Trials: trials}
	for i := 0; i < trials; i++ {
		spec, err := GenTrialSpec(sweepSeed, i)
		if err != nil {
			return nil, fmt.Errorf("chaos: trial %d: %w", i, err)
		}
		tr, err := RunTrial(spec, filter)
		if err != nil {
			return nil, fmt.Errorf("chaos: trial %d: %w", i, err)
		}
		if len(tr.Violations) == 0 {
			fmt.Fprintf(out, "trial %3d ok      workers=%d mem=%dMiB events=%d golden=%.3fs faulted=%.3fs\n",
				i, spec.Workers, spec.MemPerWorkerMB, spec.Faults.NumEvents(),
				tr.Golden.Completion.Seconds(), tr.Faulted.Completion.Seconds())
			continue
		}
		res.Violations++
		v := tr.Violations[0]
		fmt.Fprintf(out, "trial %3d FAILED  oracle=%s %s\n", i, v.Oracle, v.Detail)
		if res.Repro == nil {
			shrunk, runs := ShrinkPlan(spec.Faults, spec.Workers, 400, violationCheck(spec, v.Oracle))
			fmt.Fprintf(out, "          shrunk fault plan to %d events in %d runs\n", shrunk.NumEvents(), runs)
			reproSpec := spec
			reproSpec.Faults = shrunk
			res.Repro = &Repro{
				Schema: ReproSchema,
				Oracle: v.Oracle,
				Detail: v.Detail,
				Trial:  reproSpec,
			}
		}
	}
	return res, nil
}
