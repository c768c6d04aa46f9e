package graph_test

import (
	"testing"

	"metadataflow/internal/cluster"
	"metadataflow/internal/engine"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
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

// BenchmarkBuildFlat256 measures what a wide job costs before its first
// stage runs: the workload's graph builder, BuildPlan and engine.NewRun.
func BenchmarkBuildFlat256(b *testing.B) {
	flat := flat256()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := timeseries.BuildFlatMDF(flat, mdf.TopK(4), false)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := graph.BuildPlan(g)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := engine.NewRun(plan, engine.Options{Cluster: cluster.MustNew(cluster.DefaultConfig())}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildPlan measures validation plus stage derivation on the two
// shapes whose planning cost a wide job pays: a flat 256-branch explore and
// a 10×12 nested one (120 leaf branches, 11 scopes).
func BenchmarkBuildPlan(b *testing.B) {
	flat := flat256()
	nested := synthetic.Defaults()
	nested.Rows, nested.OuterBranches, nested.InnerBranches = 64, 10, 12
	for _, c := range []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"flat-256", func() (*graph.Graph, error) { return timeseries.BuildFlatMDF(flat, mdf.TopK(4), false) }},
		{"nested-10x12", func() (*graph.Graph, error) { return synthetic.BuildMDF(nested) }},
	} {
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
