package engine

import (
	"reflect"
	"testing"

	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/obs"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/spec"
)

// boxedSpec is a small explore over float64 rows: its output is a
// Col[float64], which has no boxed view until one is built.
const boxedSpec = `{
  "source": {"rows": 40, "partitions": 4},
  "pipeline": [
    {"op": {"name": "scale", "fn": "affine", "a": 2, "b": 1}},
    {"explore": {
      "name": "cut",
      "branches": [{"label": "lo", "params": {"l": 0.5}}, {"label": "hi", "params": {"l": 2}}],
      "body": [{"op": {"name": "f", "fn": "filter-absless", "paramKey": "l"}}],
      "choose": {"evaluator": "size", "selector": {"kind": "max"}}
    }}
  ]
}`

// TestResultBoxesOutput pins where a run's output is boxed: not when the run
// finishes, nor for Snapshot, which a service job reads, but in Result, once,
// with the rows BoxedRows gives.
func TestResultBoxesOutput(t *testing.T) {
	s, err := spec.Parse([]byte(boxedSpec))
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := graph.BuildPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewRun(plan, Options{
		Cluster: cluster.MustNew(cluster.DefaultConfig()), Policy: memorymgr.AMM,
		Scheduler: scheduler.BAS(nil), Incremental: true,
		Probe: obs.NewGaugeProbe(obs.DefaultBucketSec),
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for run.Step() {
	}
	if run.Err() != nil {
		t.Fatal(run.Err())
	}
	run.Snapshot()
	out := run.output
	if out == nil || out.NumRows() == 0 {
		t.Fatal("the run has no output rows to box")
	}
	want := make([][]dataset.Row, len(out.Parts))
	for i := range out.Parts {
		p := &out.Parts[i]
		if p.Rows != nil {
			t.Fatalf("partition %d is boxed before Result", i)
		}
		want[i] = p.BoxedRows()
	}

	res := run.Result()
	if res.Output != out {
		t.Fatal("Result does not return the run's output")
	}
	got := make([][]dataset.Row, len(out.Parts))
	for i := range out.Parts {
		p := &out.Parts[i]
		if p.NumRows() > 0 && p.Rows == nil {
			t.Fatalf("partition %d is not boxed after Result", i)
		}
		got[i] = p.Rows
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Result boxed %v, BoxedRows gives %v", got, want)
	}

	run.Result()
	for i := range out.Parts {
		p := &out.Parts[i]
		if len(p.Rows) != len(got[i]) || (len(got[i]) > 0 && &p.Rows[0] != &got[i][0]) {
			t.Fatalf("a second Result boxed partition %d again", i)
		}
	}
}
