package engine_test

import (
	"fmt"
	"testing"

	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/engine"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/obs"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/workload/dnn"
	"metadataflow/internal/workload/kde"
	"metadataflow/internal/workload/synthetic"
)

// BenchmarkStep measures the engine's own cost per job on a flat 256-branch
// explore whose operators do nothing: two stages a branch, an incremental
// top-4 choose, BAS with the default hint. One iteration is NewRun plus
// every Step of the job (516 stages); what it times is the step loop, the
// ready set, the picks, the choose session and the memory manager. The
// recorded variant attaches an obs.Recorder, the way the service runs jobs,
// and reports its time as a multiple of the nil variant's when both ran.
func BenchmarkStep(b *testing.B) {
	src := dataset.FromRows("in", intRows(64), 4, 1<<20)
	plan := flat256Plan(b, mdf.SourceFromDataset(src), mdf.Identity)
	var nilNsPerOp float64
	b.Run("nil-probe", func(b *testing.B) {
		benchSteps(b, plan, nil)
		nilNsPerOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("recorder", func(b *testing.B) {
		benchSteps(b, plan, func() obs.Probe { return obs.NewRecorder() })
		if nilNsPerOp > 0 {
			// What being observed multiplies a job's engine time by, on a
			// plan whose every pick weighs some 250 candidates.
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nilNsPerOp, "x-nil-probe")
		}
	})
}

// flat256Plan is the plan of a flat 256-branch explore, two stages a branch
// (the second behind a wide dependency), closed by an incremental top-4
// choose; op is called once per operator, with the name of its output, for
// the operator's function.
func flat256Plan(tb testing.TB, source graph.TransformFunc, op func(output string) graph.TransformFunc) *graph.Plan {
	tb.Helper()
	bld := mdf.NewBuilder()
	specs := make([]mdf.BranchSpec, 256)
	for i := range specs {
		specs[i] = mdf.BranchSpec{Label: fmt.Sprintf("b%d", i), Hint: float64(i)}
	}
	bld.Source("src", source, 0.001).
		Explore("explore", specs, mdf.NewChooser(mdf.SizeEvaluator(), mdf.TopK(4)),
			func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
				return start.Then(spec.Label+"-head", op("head"), 0.001).
					ThenWide(spec.Label+"-tail", op("tail"), 0.001)
			}).
		Then("sink", op("out"), 0.001)
	g, err := bld.Build()
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := graph.BuildPlan(g)
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// benchSteps times NewRun plus every Step of one job per iteration, under
// BAS, AMM and incremental evaluation, with a fresh probe per job (nil for
// none) — the way the service attaches a recorder.
func benchSteps(b *testing.B, plan *graph.Plan, probe func() obs.Probe) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := engine.Options{
			Cluster:     cluster.MustNew(cluster.DefaultConfig()),
			Policy:      memorymgr.AMM,
			Scheduler:   scheduler.BAS(nil),
			Incremental: true,
		}
		if probe != nil {
			opts.Probe = probe()
		}
		run, err := engine.NewRun(plan, opts, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := run.RunToCompletion(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBranchParallel runs the two kernel-bound jobs of the paper at
// default scale, graph build to result, as the lib-kernel workload of
// benchmarks/ does: the dnn early-choose job (8 + 16 training branches of one
// stage each, FixedCost) and the kde job (2 x 21 estimates over 20 000 rows).
// Run it with -cpu 1,2: on one processor no stage is computed ahead of its
// pick and the reading is the serial engine's; the ratio of the two is what
// computing the branches ahead on other goroutines gains, below the
// benchmark harness.
func BenchmarkBranchParallel(b *testing.B) {
	jobs := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"dnn", func() (*graph.Graph, error) { return dnn.BuildEarlyChooseMDF(dnn.Defaults()) }},
		{"kde", func() (*graph.Graph, error) { return kde.BuildMDF(kde.Defaults()) }},
	}
	for _, j := range jobs {
		b.Run(j.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := j.build()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := engine.Execute(g, engine.Options{
					Cluster:     cluster.MustNew(cluster.DefaultConfig()),
					Policy:      memorymgr.AMM,
					Scheduler:   scheduler.BAS(nil),
					Incremental: true,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// nestedPlan is the plan of the synthetic MDF with the given branch counts
// over minimal rows: outer×inner innermost branches, every stage in two
// nested scopes.
func nestedPlan(tb testing.TB, outer, inner int) *graph.Plan {
	tb.Helper()
	p := synthetic.Defaults()
	p.Rows, p.OuterBranches, p.InnerBranches = 64, outer, inner
	g, err := synthetic.BuildMDF(p)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := graph.BuildPlan(g)
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// BenchmarkProgressInto refreshes one progress buffer from a nested 10×12
// run (130 branches) stopped halfway: what the service's step loop pays
// after every step of every job.
func BenchmarkProgressInto(b *testing.B) {
	plan := nestedPlan(b, 10, 12)
	run, err := engine.NewRun(plan, engine.Options{
		Cluster:     cluster.MustNew(cluster.DefaultConfig()),
		Policy:      memorymgr.AMM,
		Incremental: true,
	}, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < len(plan.Stages)/2 && run.Step(); i++ {
	}
	var p engine.Progress
	run.ProgressInto(&p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run.ProgressInto(&p)
	}
}

// probeOverheadRatioBound caps how much slower a fully recorded run may be
// than a probe-less one on the nested 5×5 plan, the shape of an mdf serve
// job: spans, counters, decisions with their candidates, and the series
// layer (per-stage latency, branch progress, scores, rank churn, branch
// lifetimes). See TestProbeOverheadBounded for how the ratio is read and
// what the bound leaves above it.
const probeOverheadRatioBound = 2.4

// TestProbeOverheadBounded asserts what BenchmarkStep's two variants
// measure, on the nested plan: telemetry stays a bounded constant factor on
// a job's engine time, and a nil probe is the zero-cost baseline. The
// sandbox this runs in is disturbed in bursts that only ever slow a
// benchmark down, by up to a third, so each variant runs three times,
// alternating, and the fastest run of each is compared. Read that way the
// ratio is 1.7 to 2.0 on two cores (2.8 before the recorder's write path
// stopped formatting and growing per event); the bound leaves 0.4 above the
// highest reading, which a probe call that formats or allocates per event,
// or an emission that re-walks the plan per stage, still crosses. Skipped
// under -short (it runs six real benchmarks) and under the race detector.
func TestProbeOverheadBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed bound; skipped in short mode")
	}
	if raceDetector {
		// Every recorder call takes a mutex, which the detector instruments:
		// under it the ratio (about 3) measures the detector.
		t.Skip("the race detector's own cost dominates the ratio")
	}
	plan := nestedPlan(t, 5, 5)
	fastest := func(best *int64, r testing.BenchmarkResult) {
		if ns := r.NsPerOp(); r.N > 0 && (*best == 0 || ns < *best) {
			*best = ns
		}
	}
	var plain, recorded int64
	for i := 0; i < 3; i++ {
		fastest(&plain, testing.Benchmark(func(b *testing.B) { benchSteps(b, plan, nil) }))
		fastest(&recorded, testing.Benchmark(func(b *testing.B) {
			benchSteps(b, plan, func() obs.Probe { return obs.NewRecorder() })
		}))
	}
	if plain <= 0 {
		t.Skipf("degenerate baseline measurement: %v ns/op", plain)
	}
	ratio := float64(recorded) / float64(plain)
	t.Logf("plain %v ns/op, recorded %v ns/op, ratio %.2f (bound %.1f)",
		plain, recorded, ratio, probeOverheadRatioBound)
	if ratio > probeOverheadRatioBound {
		t.Errorf("recorded run is %.2f× the probe-less run, bound %.1f×: telemetry overhead regressed",
			ratio, probeOverheadRatioBound)
	}
}
