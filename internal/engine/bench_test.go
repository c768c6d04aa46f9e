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
)

// BenchmarkStep measures the engine's own cost per job on a flat 256-branch
// explore whose operators do nothing: two stages a branch, an incremental
// top-4 choose, BAS with the default hint. One iteration is NewRun plus
// every Step of the job (516 stages); what it times is the step loop, the
// ready set, the picks, the choose session and the memory manager. The
// recorded variant attaches an obs.Recorder, the way the service runs jobs.
func BenchmarkStep(b *testing.B) {
	src := dataset.FromRows("in", intRows(64), 4, 1<<20)
	bld := mdf.NewBuilder()
	specs := make([]mdf.BranchSpec, 256)
	for i := range specs {
		specs[i] = mdf.BranchSpec{Label: fmt.Sprintf("b%d", i), Hint: float64(i)}
	}
	bld.Source("src", mdf.SourceFromDataset(src), 0.001).
		Explore("explore", specs, mdf.NewChooser(mdf.SizeEvaluator(), mdf.TopK(4)),
			func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
				return start.Then(spec.Label+"-head", mdf.Identity("head"), 0.001).
					ThenWide(spec.Label+"-tail", mdf.Identity("tail"), 0.001)
			}).
		Then("sink", mdf.Identity("out"), 0.001)
	g, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	plan, err := graph.BuildPlan(g)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		probe func() obs.Probe
	}{
		{"nil-probe", func() obs.Probe { return nil }},
		{"recorder", func() obs.Probe { return obs.NewRecorder() }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run, err := engine.NewRun(plan, engine.Options{
					Cluster:     cluster.MustNew(cluster.DefaultConfig()),
					Policy:      memorymgr.AMM,
					Scheduler:   scheduler.BAS(nil),
					Incremental: true,
					Probe:       c.probe(),
				}, 0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := run.RunToCompletion(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
