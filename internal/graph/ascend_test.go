package graph_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"metadataflow/internal/baseline"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
	"metadataflow/internal/spec"
	"metadataflow/internal/workload/dnn"
	"metadataflow/internal/workload/kde"
	"metadataflow/internal/workload/synthetic"
	"metadataflow/internal/workload/timeseries"
)

// TestBuiltGraphsAscend checks that the graphs production code builds run
// every edge from a lower operator ID to a higher one, so that TopoSort
// orders them by one pass over their edges rather than by its heap: every
// workload builder, the jobs of the host-time benchmark's lib-kernel and
// lib-engine workloads (a 5x5 synthetic MDF over 20 000 rows, a 10x12 one
// over 64, a flat 256-branch time series explore closed by top-4 and by a
// pruning first-4), two nested spec documents, every document of
// examples/specs and internal/plan/testdata that compiles, and the concrete
// jobs baseline.ExpandJobs makes of a Fig. 9 synthetic MDF.
func TestBuiltGraphsAscend(t *testing.T) {
	type build struct {
		name string
		g    func() (*graph.Graph, error)
	}
	synth := func(rows, outer, inner int) func() (*graph.Graph, error) {
		return func() (*graph.Graph, error) {
			p := synthetic.Defaults()
			p.Rows, p.OuterBranches, p.InnerBranches = rows, outer, inner
			return synthetic.BuildMDF(p)
		}
	}
	flat := timeseries.Defaults()
	flat.Rows, flat.WindowLengths, flat.Thresholds = 100, nil, nil
	for i := 0; i < 16; i++ {
		flat.WindowLengths = append(flat.WindowLengths, 2+i)
		flat.Thresholds = append(flat.Thresholds, 1+0.0005*float64(i+1))
	}
	builds := []build{
		{"synthetic", synth(20000, 5, 5)},
		{"synthetic-120", synth(64, 10, 12)},
		{"kde", func() (*graph.Graph, error) { return kde.BuildMDF(kde.Defaults()) }},
		{"kde-scoped", func() (*graph.Graph, error) { return kde.BuildScopedMDF(kde.DefaultScoped()) }},
		{"kde-example", func() (*graph.Graph, error) { return kde.BuildExampleMDF(kde.DefaultExample()) }},
		{"timeseries", func() (*graph.Graph, error) { return timeseries.BuildMDF(timeseries.Defaults()) }},
		{"flat-256-top4", func() (*graph.Graph, error) { return timeseries.BuildFlatMDF(flat, mdf.TopK(4), false) }},
		{"flat-256-first4", func() (*graph.Graph, error) {
			return timeseries.BuildFlatMDF(flat, mdf.KThreshold(4, flat.MaskKeepRatio, false), true)
		}},
		{"dnn-early-choose", func() (*graph.Graph, error) { return dnn.BuildEarlyChooseMDF(dnn.Defaults()) }},
		{"dnn-exhaustive", func() (*graph.Graph, error) { return dnn.BuildExhaustiveMDF(dnn.Defaults()) }},
		{"dnn-weights", func() (*graph.Graph, error) { return dnn.BuildWeightsOnlyMDF(dnn.Defaults()) }},
		{"dnn-hyper", func() (*graph.Graph, error) { return dnn.BuildHyperOnlyMDF(dnn.Defaults()) }},
		{"dnn-iterative", func() (*graph.Graph, error) { return dnn.BuildIterativeMDF(dnn.DefaultIterative()) }},
		{"spec-nested-2", func() (*graph.Graph, error) { return nestedSpec(2).Compile() }},
		{"spec-nested-3", func() (*graph.Graph, error) { return nestedSpec(3).Compile() }},
	}
	var paths []string
	for _, pattern := range []string{"../../examples/specs/*.json", "../plan/testdata/*.json"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	compiled := 0
	for _, path := range paths {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := spec.Parse(doc)
		if err != nil {
			continue
		}
		if _, err := sp.Compile(); err != nil {
			continue
		}
		compiled++
		builds = append(builds, build{path, sp.Compile})
	}
	if compiled < 4 {
		t.Fatalf("only %d of %d spec documents compile", compiled, len(paths))
	}
	fig9, err := synth(64, 3, 3)()
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := baseline.ExpandJobs(fig9)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 9 {
		t.Fatalf("a 3x3 synthetic MDF expands to %d jobs, want 9", len(jobs))
	}
	for i, job := range jobs {
		builds = append(builds, build{fmt.Sprintf("fig9 job %d", i), func() (*graph.Graph, error) { return job, nil }})
	}
	for _, b := range builds {
		g, err := b.g()
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if !g.Ascending() {
			t.Errorf("%s: an edge runs from a higher operator ID to a lower one; TopoSort takes its heap", b.name)
		}
	}
}
