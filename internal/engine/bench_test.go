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
	"metadataflow/internal/stats"
	"metadataflow/internal/workload/dnn"
	"metadataflow/internal/workload/kde"
	"metadataflow/internal/workload/synthetic"
)

// BenchmarkStep measures the engine's own cost per job on a flat 256-branch
// explore whose operators do nothing: two stages a branch, an incremental
// top-4 choose, BAS with the default hint. One iteration is NewRun plus
// every Step of the job (516 stages); what it times is the step loop, the
// ready set, the picks, the choose session and the memory manager. Two
// variants attach a probe: gauge-probe the obs.GaugeProbe a service job runs
// with, recorder the obs.Recorder of mdf run -trace, chaos and the
// experiments. Each reports its time as a multiple of the nil variant's when
// both ran. nil-probe-4096 is the nil variant on 4 096 branches (8 196
// stages): set against nil-probe per stage, it shows what a pick costs more
// on a wider ready list.
func BenchmarkStep(b *testing.B) {
	src := dataset.FromRows("in", intRows(64), 4, 1<<20)
	plan := flatPlan(b, 256, mdf.SourceFromDataset(src), mdf.Identity)
	var nilNsPerOp float64
	b.Run("nil-probe", func(b *testing.B) {
		benchSteps(b, plan, nil)
		nilNsPerOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("nil-probe-4096", func(b *testing.B) {
		benchSteps(b, flatPlan(b, 4096, mdf.SourceFromDataset(src), mdf.Identity), nil)
	})
	for _, v := range probeVariants {
		b.Run(v.name, func(b *testing.B) {
			benchSteps(b, plan, v.probe)
			if nilNsPerOp > 0 {
				// What being observed multiplies a job's engine time by, on a
				// plan whose every pick weighs some 250 candidates.
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nilNsPerOp, "x-nil-probe")
			}
		})
	}
}

// probeVariants are the probes a job runs with besides none, each with the
// bound TestProbeOverheadBounded holds its overhead ratio to.
var probeVariants = []struct {
	name  string
	probe func() obs.Probe
	bound float64
}{
	{"gauge-probe", func() obs.Probe { return obs.NewGaugeProbe(obs.DefaultBucketSec) }, gaugeProbeRatioBound},
	{"recorder", func() obs.Probe { return obs.NewRecorder() }, probeOverheadRatioBound},
}

// flatPlan is the plan of a flat explore of width branches, two stages a
// branch (the second behind a wide dependency), closed by an incremental
// top-4 choose; op is called once per operator, with the name of its output,
// for the operator's function.
func flatPlan(tb testing.TB, width int, source graph.TransformFunc, op func(output string) graph.TransformFunc) *graph.Plan {
	tb.Helper()
	bld := mdf.NewBuilder()
	specs := make([]mdf.BranchSpec, width)
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
// none), the way the service attaches one.
func benchSteps(b *testing.B, plan *graph.Plan, probe func() obs.Probe) {
	b.ReportAllocs()
	b.ResetTimer()
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

// BenchmarkResult times Run.Result on a finished run whose output is 20 000
// synthetic Pairs in 8 partitions, what it boxes at the end of a lib-kernel
// synthetic job. Run it with -cpu 1,2: on one processor the output is boxed
// serially, on two on the compute-ahead pool as well.
func BenchmarkResult(b *testing.B) {
	p := synthetic.Defaults()
	p.Rows = 20_000
	bld := mdf.NewBuilder()
	bld.Source("src", mdf.SourceFromDataset(synthetic.Generate(p)), 0.001).
		Then("sink", mdf.Identity("out"), 0.001)
	g, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	plan, err := graph.BuildPlan(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		run, err := engine.NewRun(plan, engine.Options{Cluster: cluster.MustNew(cluster.DefaultConfig()), Scheduler: scheduler.BAS(nil)}, 0)
		if err != nil {
			b.Fatal(err)
		}
		for run.Step() {
		}
		if run.Err() != nil {
			b.Fatal(run.Err())
		}
		b.StartTimer()
		run.Result()
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

// affinePlan is nestedPlan's shape, outer×inner innermost branches under two
// nested explores choosing the maximum mean value, built from the operators
// below: its per-row work is fixed here, so a change to the synthetic
// workload's kernels leaves it as it is. Each branch's operator materialises
// a fresh column of v ↦ (v·a + b) mod p over its input's values; the values,
// parameters, costs and accounted sizes are the synthetic job's at
// Defaults() over 64 rows.
func affinePlan(tb testing.TB, outer, inner int) *graph.Plan {
	tb.Helper()
	const rows, parts, opsPerItem, cost = 64, 8, 4, 0.002 * 4
	vals := make([]uint32, rows)
	rng := stats.NewRNG(1)
	for i := range vals {
		rng.Intn(1 << 30) // the synthetic generator's key: the values are its own
		vals[i] = uint32(rng.Intn(1 << 20))
	}
	input := dataset.FromSlice("values", vals, parts, 1)
	input.SetVirtualBytes(16 << 30)
	branches := func(n int) []mdf.BranchSpec {
		specs := make([]mdf.BranchSpec, n)
		for i, w := 0, int64(10); i < n; i, w = i+1, w*10 {
			specs[i] = mdf.BranchSpec{Label: fmt.Sprintf("w=%d", w), Hint: float64(w)}
		}
		return specs
	}
	mean := mdf.Evaluator{Name: "int_value", Fn: meanValue, CostPerMB: 0.0005}
	bld := mdf.NewBuilder()
	bld.Source("src", mdf.SourceFromDataset(input), 0.0002).
		Explore("B1", branches(outer), mdf.NewChooser(mean, mdf.Max()),
			func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
				first := start.Then("op("+spec.Label+")", affineOp("first_op", int64(spec.Hint), opsPerItem), cost)
				return first.Explore("B2", branches(inner), mdf.NewChooser(mean, mdf.Max()),
					func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
						return start.Then("op2("+spec.Label+")", affineOp("second_op", int64(spec.Hint), opsPerItem), cost)
					})
			}).
		Then("sink", mdf.Identity("results"), 0.0001)
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

// affineOp applies opsPerItem steps v ↦ (v·w + k + 1) mod p, folded into one
// map v ↦ (v·a + b) mod p, to every value of its input, into a fresh column
// cut at the input's partition ends.
func affineOp(name string, w int64, opsPerItem int) graph.TransformFunc {
	const mod = 1_000_000_007
	a, b := uint64(1), uint64(0)
	for k := 0; k < opsPerItem; k++ {
		a = a * (uint64(w) % mod) % mod
		b = (b*(uint64(w)%mod) + uint64(k) + 1) % mod
	}
	return func(ins []*dataset.Dataset) (*dataset.Dataset, error) {
		in, err := mdf.OneInput(name, ins)
		if err != nil {
			return nil, err
		}
		vals := make([]uint32, 0, in.NumRows())
		parts := make([]dataset.Partition, len(in.Parts))
		for i := range in.Parts {
			part := &in.Parts[i]
			lo := len(vals)
			for _, v := range dataset.Values[uint32](part) {
				vals = append(vals, uint32((uint64(v)*a+b)%mod))
			}
			parts[i] = dataset.Partition{Lo: lo, Hi: len(vals), VirtualBytes: part.VirtualBytes}
		}
		return dataset.Over(name, dataset.Col[uint32](vals), parts), nil
	}
}

// meanValue is the mean of a dataset's values, summed partition by
// partition.
func meanValue(d *dataset.Dataset) float64 {
	var sum float64
	n := 0
	for i := range d.Parts {
		for _, v := range dataset.Values[uint32](&d.Parts[i]) {
			sum += float64(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
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
// than a probe-less one on the nested 5×5 affinePlan, the shape of an mdf
// serve job: spans, counters, decisions with their candidates, and the series
// layer (per-stage latency, branch progress, scores, rank churn, branch
// lifetimes). See TestProbeOverheadBounded for how the ratio is read and
// what the bound leaves above it.
const probeOverheadRatioBound = 2.4

// gaugeProbeRatioBound caps the same ratio for the gauge probe a service job
// runs with: counter samples and series reports, most of them dropped on
// arrival, and no audit report built. Read as below it is 1.06 to 1.27 on two
// cores and the bound leaves a third above that. Audit reports built for
// this probe and thrown away read 1.3 to 1.4, too close to tell apart by
// time: TestStepAllocationsBounded is the gate that catches them.
const gaugeProbeRatioBound = 1.6

// probeOverheadAttempts is how many plain-and-probed pairs
// TestProbeOverheadBounded measures per variant before it fails: each one
// must exceed the bound.
const probeOverheadAttempts = 3

// TestProbeOverheadBounded asserts what BenchmarkStep's variants measure, on
// the nested affinePlan, whose operators are this file's, so that what a
// workload kernel gains or loses does not move the ratio: telemetry stays a
// bounded constant factor on a job's engine time, and a nil probe is the
// zero-cost baseline. The machine this runs on is disturbed in bursts that
// only ever slow a benchmark down — by up to a third, and more while go test
// ./... keeps every core busy with other packages — so a ratio is read from a
// pair of runs back to back, the plain and the probed one, whose order
// alternates from pair to pair. A variant passes on its first pair within the
// bound and fails only when probeOverheadAttempts pairs all exceed it; the
// best ratio is logged. Read that way the recorder's ratio is 1.9 to 2.3 on
// two cores (2.8 before the recorder's write path stopped formatting and
// growing per event); the bound leaves 0.1 above the highest reading, and a
// probe call that formats or allocates per event (5.5 to 6.7 with a
// Sprintf per report), or an emission that re-walks the plan per stage, still
// crosses it on every pair. Skipped under -short (it runs real benchmarks)
// and under the race detector.
func TestProbeOverheadBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed bound; skipped in short mode")
	}
	if engine.RaceDetector {
		// The detector instruments every memory access, and each report the
		// recorder takes is a write the probe-less run does not make: under
		// it the ratio (1.9 to 2.2 when written) reads the detector's cost
		// per access as much as the recorder's, too close to the bound.
		t.Skip("the race detector's own cost dominates the ratio")
	}
	plan := affinePlan(t, 5, 5)
	measure := func(probe func() obs.Probe) int64 {
		return testing.Benchmark(func(b *testing.B) { benchSteps(b, plan, probe) }).NsPerOp()
	}
	for _, v := range probeVariants {
		best := 0.0
		for attempt := 0; attempt < probeOverheadAttempts; attempt++ {
			var plain, probed int64
			if attempt%2 == 0 {
				plain, probed = measure(nil), measure(v.probe)
			} else {
				probed, plain = measure(v.probe), measure(nil)
			}
			if plain <= 0 || probed <= 0 {
				t.Skipf("degenerate measurement: plain %v ns/op, probed %v ns/op", plain, probed)
			}
			ratio := float64(probed) / float64(plain)
			t.Logf("%s, pair %d: plain %v ns/op, probed %v ns/op, ratio %.2f (bound %.1f)",
				v.name, attempt+1, plain, probed, ratio, v.bound)
			if best == 0 || ratio < best {
				best = ratio
			}
			if best <= v.bound {
				break
			}
		}
		if best > v.bound {
			t.Errorf("a run with the %s is at best %.2f× the probe-less run over %d pairs, bound %.1f×: telemetry overhead regressed",
				v.name, best, probeOverheadAttempts, v.bound)
		}
	}
}
