package engine_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/engine"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/spec"
	"metadataflow/internal/workload/dnn"
	"metadataflow/internal/workload/kde"
	"metadataflow/internal/workload/synthetic"
	"metadataflow/internal/workload/timeseries"
)

// guardSpec runs every operator function and every payload-reading evaluator
// of the spec language over one source: the whole-dataset ones (normalize,
// standardize, the mean, stddev and neg-mean-abs evaluators, the iteration's
// divergence check) read their input as a view.
const guardSpec = `{
  "name": "guard",
  "source": {"rows": 600, "partitions": 4, "virtualBytes": 67108864, "distribution": "bimodal", "seed": 5},
  "pipeline": [
    {"explore": {
      "name": "prep",
      "branches": [{"label": "normalize"}, {"label": "standardize"}, {"label": "plain"}],
      "body": [
        {"op": {"name": "n", "fn": "normalize"}},
        {"op": {"name": "s", "fn": "standardize"}},
        {"op": {"name": "a", "fn": "affine", "a": 1.5, "b": -0.25}},
        {"iterate": {"name": "grow", "rounds": 2, "op": {"name": "sq", "fn": "square"}, "divergeAboveMeanAbs": 1e9}},
        {"op": {"name": "abs", "fn": "abs"}},
        {"op": {"name": "id", "fn": "identity"}}
      ],
      "choose": {"evaluator": "mean", "selector": {"kind": "topk", "k": 2}}
    }},
    {"explore": {
      "name": "cut",
      "branches": [{"label": "lo", "params": {"limit": 0.5}}, {"label": "hi", "params": {"limit": 2}}],
      "body": [
        {"op": {"name": "fl", "fn": "filter-less", "paramKey": "limit"}},
        {"op": {"name": "fg", "fn": "filter-greater", "limit": -1}},
        {"op": {"name": "fa", "fn": "filter-absless", "limit": 1.75}}
      ],
      "choose": {"evaluator": "stddev", "selector": {"kind": "max"}}
    }},
    {"explore": {
      "name": "last",
      "branches": [{"label": "p"}, {"label": "q"}],
      "body": [{"op": {"name": "std", "fn": "standardize"}}],
      "choose": {"evaluator": "neg-mean-abs", "selector": {"kind": "min"}}
    }},
    {"op": {"name": "sink", "fn": "identity"}}
  ]
}`

// TestJobsLeaveTheirInputUntouched runs every job kind twice from one input
// and checks the input after each run. Whole-dataset operators read their
// input as a view of its column (dataset.Flatten) and every emission of a
// source shares that column, so a write into it — hidden while each operator
// worked on a private copy — would corrupt the next run and every other job
// of the same source.
func TestJobsLeaveTheirInputUntouched(t *testing.T) {
	small := func(p timeseries.Params) timeseries.Params { p.Rows = 2000; return p }
	kp := kde.Defaults()
	kp.Rows = 2000
	scoped, example := kde.DefaultScoped(), kde.DefaultExample()
	scoped.Rows, example.Rows = 2000, 2000
	dp := dnn.Defaults()
	dp.Train, dp.Val, dp.Inits = 120, 40, dnn.Inits()[:3]
	sp := synthetic.Defaults()
	sp.Rows = 500
	jobs := map[string]func() (*graph.Graph, error){
		"timeseries": func() (*graph.Graph, error) { return timeseries.BuildMDF(small(timeseries.Defaults())) },
		"timeseries/flat": func() (*graph.Graph, error) {
			return timeseries.BuildFlatMDF(small(timeseries.Defaults()), mdf.TopK(2), false)
		},
		"kde":            func() (*graph.Graph, error) { return kde.BuildMDF(kp) },
		"kde/scoped":     func() (*graph.Graph, error) { return kde.BuildScopedMDF(scoped) },
		"kde/example":    func() (*graph.Graph, error) { return kde.BuildExampleMDF(example) },
		"dnn/early":      func() (*graph.Graph, error) { return dnn.BuildEarlyChooseMDF(dp) },
		"dnn/exhaustive": func() (*graph.Graph, error) { return dnn.BuildExhaustiveMDF(dp) },
		"synthetic":      func() (*graph.Graph, error) { return synthetic.BuildMDF(sp) },
		"spec": func() (*graph.Graph, error) {
			s, err := spec.Parse([]byte(guardSpec))
			if err != nil {
				return nil, err
			}
			return s.Compile()
		},
	}
	for name, build := range jobs {
		t.Run(name, func(t *testing.T) {
			g, err := build()
			if err != nil {
				t.Fatal(err)
			}
			// Pin the source to one dataset: what it emits first, which for
			// the workloads shares the payload they generated or cached.
			var input *dataset.Dataset
			for _, op := range g.Ops() {
				if op.Kind == graph.KindSource {
					if input, err = op.Transform(nil); err != nil {
						t.Fatal(err)
					}
					op.Transform = mdf.SourceFromDataset(input)
				}
			}
			if input == nil || input.NumRows() == 0 {
				t.Fatal("no source input")
			}
			before := checksum(input)
			for run := 1; run <= 2; run++ {
				res, err := engine.Execute(g, engine.Options{
					Cluster: cluster.MustNew(cluster.DefaultConfig()), Policy: memorymgr.AMM,
					Scheduler: scheduler.BAS(nil), Incremental: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Output == nil {
					t.Fatal("no output")
				}
				if after := checksum(input); after != before {
					t.Fatalf("run %d wrote the job's input: checksum %s, was %s", run, after, before)
				}
			}
		})
	}
}

// checksum hashes the rows of a dataset, every value printed in full.
func checksum(d *dataset.Dataset) string {
	h := fnv.New64a()
	for _, row := range d.Rows() {
		fmt.Fprintf(h, "%v\x1f", row)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
