package graph_test

import (
	"testing"

	"metadataflow/internal/cluster"
	"metadataflow/internal/engine"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/spec"
	"metadataflow/internal/workload/synthetic"
	"metadataflow/internal/workload/timeseries"
)

// flat256 is the flat 256-branch masking explore of Fig. 22 over 100 rows.
func flat256() timeseries.Params {
	flat := timeseries.Defaults()
	flat.Rows = 100
	flat.WindowLengths, flat.Thresholds = nil, nil
	for i := 0; i < 16; i++ {
		flat.WindowLengths = append(flat.WindowLengths, 2+i)
		flat.Thresholds = append(flat.Thresholds, 1+0.0005*float64(i+1))
	}
	return flat
}

// nested10x12 is the synthetic job of Figs. 9–18 at |B1| × |B2| = 10 × 12
// over 64 rows: 120 leaf branches in 11 scopes.
func nested10x12() synthetic.Params {
	nested := synthetic.Defaults()
	nested.Rows, nested.OuterBranches, nested.InnerBranches = 64, 10, 12
	return nested
}

// builders are the three paths that build a graph: the flat 256-branch
// masking explore, the 10×12 nested synthetic job and the compilation of a
// three-level nested spec document (nestedSpec, which the plan golden pins).
func builders() []struct {
	name  string
	build func() (*graph.Graph, error)
} {
	flat, nested := flat256(), nested10x12()
	normalized := nestedSpec(3).Normalized()
	return []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"flat-256", func() (*graph.Graph, error) { return timeseries.BuildFlatMDF(flat, mdf.TopK(4), false) }},
		{"nested-10x12", func() (*graph.Graph, error) { return synthetic.BuildMDF(nested) }},
		{"spec-nested", func() (*graph.Graph, error) { return spec.CompileNormalized(normalized) }},
	}
}

// BenchmarkBuild measures what a job costs before it is planned: the graph
// builder alone, validation included, on each path that builds a graph.
// BenchmarkBuildPlan takes it from there.
func BenchmarkBuild(b *testing.B) {
	for _, c := range builders() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// startRun starts a run of plan the way a library job does, BAS on the paper's
// cluster, without stepping it.
func startRun(cl *cluster.Cluster, plan *graph.Plan) (*engine.Run, error) {
	return engine.NewRun(plan, engine.Options{Cluster: cl, Scheduler: scheduler.BAS(nil), Incremental: true}, 0)
}

// BenchmarkBuildPlan measures stage derivation on the two shapes whose
// planning cost a wide job pays: a flat 256-branch explore and a 10×12 nested
// one. Their builders validated them, so BuildPlan does not again.
func BenchmarkBuildPlan(b *testing.B) {
	for _, c := range builders()[:2] {
		b.Run(c.name, func(b *testing.B) {
			g, err := c.build()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := graph.BuildPlan(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNewRun measures the third layer a job pays for before its first
// step, after BenchmarkBuild and BenchmarkBuildPlan: starting a run of the
// plan, on each path that builds a graph.
func BenchmarkNewRun(b *testing.B) {
	cl := cluster.MustNew(cluster.DefaultConfig())
	for _, c := range builders() {
		b.Run(c.name, func(b *testing.B) {
			g, err := c.build()
			if err != nil {
				b.Fatal(err)
			}
			plan, err := graph.BuildPlan(g)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := startRun(cl, plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
