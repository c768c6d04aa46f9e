package engine

import (
	"fmt"
	"reflect"
	"testing"

	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
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

// TestPooledBoxingMatchesSerial: Result boxes an output of at least
// aheadMinRows rows on the compute-ahead pool, and what it boxes is what a
// serial Dataset.Box of the same output gives, partition by partition,
// whatever the partition count, on one processor or two; every token is back
// when Result returns.
func TestPooledBoxingMatchesSerial(t *testing.T) {
	for _, procs := range []int{1, 2} {
		for _, rows := range []int{aheadMinRows / 2, 3 * aheadMinRows} {
			for _, parts := range []int{1, 2, 7, 8} {
				withProcs(procs, func() {
					name := fmt.Sprintf("GOMAXPROCS %d, %d rows in %d partitions", procs, rows, parts)
					vals := make([]float64, rows)
					for i := range vals {
						vals[i] = float64(i) / 3
					}
					b := mdf.NewBuilder()
					b.Source("src", mdf.SourceFunc(func() *dataset.Dataset {
						return dataset.FromSlice("in", vals, parts, 8)
					}), 0.001).Then("sink", mdf.Identity("out"), 0.001)
					g, err := b.Build()
					if err != nil {
						t.Fatal(err)
					}
					plan, err := graph.BuildPlan(g)
					if err != nil {
						t.Fatal(err)
					}
					run, err := NewRun(plan, Options{Cluster: cluster.MustNew(cluster.DefaultConfig()), Scheduler: scheduler.BAS(nil)}, 0)
					if err != nil {
						t.Fatal(err)
					}
					for run.Step() {
					}
					if run.Err() != nil {
						t.Fatal(run.Err())
					}
					serial := run.output.Alias("serial")
					serial.Box()
					res := run.Result()
					if n := aheadTokens.Load(); n != 0 {
						t.Errorf("%s: %d tokens still taken after Result", name, n)
					}
					if len(res.Output.Parts) != parts {
						t.Fatalf("%s: the output has %d partitions", name, len(res.Output.Parts))
					}
					for i := range res.Output.Parts {
						got, want := res.Output.Parts[i].Rows, serial.Parts[i].Rows
						if len(want) == 0 || !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: partition %d boxed %d rows, the serial Box %d (or they differ)", name, i, len(got), len(want))
						}
					}
				})
			}
		}
	}
}
