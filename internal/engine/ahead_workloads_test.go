package engine_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
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

// pooledSpec is a nested explore with an unrolled iteration in its inner
// branches, 4096 rows in: every operator, evaluator and selector kind of it
// is one the service's jobs are made of.
const pooledSpec = `{
  "name": "pooled",
  "source": {"rows": 4096, "partitions": 4, "virtualBytes": 268435456, "distribution": "bimodal", "seed": 5},
  "pipeline": [
    {"op": {"name": "prep", "fn": "standardize"}},
    {"explore": {
      "name": "outer",
      "branches": [
        {"label": "a=0.7", "params": {"a": 0.7}},
        {"label": "a=1.2", "params": {"a": 1.2}},
        {"label": "a=1.7", "params": {"a": 1.7}}
      ],
      "body": [
        {"op": {"name": "scale", "fn": "affine", "a": 1, "b": 0.25, "paramKey": "a", "costPerMB": 0.002}},
        {"op": {"name": "center", "fn": "standardize"}},
        {"explore": {
          "name": "inner",
          "branches": [
            {"label": "g=1.01", "params": {"g": 1.01}},
            {"label": "g=1.5", "params": {"g": 1.5}},
            {"label": "g=4", "params": {"g": 4}}
          ],
          "body": [
            {"op": {"name": "keep", "fn": "filter-absless", "limit": 1.5, "costPerMB": 0.002}},
            {"iterate": {"name": "grow", "rounds": 3, "divergeAboveMeanAbs": 10,
              "op": {"name": "step", "fn": "affine", "paramKey": "g"}}}
          ],
          "choose": {"evaluator": "neg-mean-abs", "selector": {"kind": "topk", "k": 2}}
        }},
        {"op": {"name": "spread", "fn": "normalize"}}
      ],
      "choose": {"evaluator": "stddev", "selector": {"kind": "max"}}
    }},
    {"op": {"name": "sink", "fn": "identity"}}
  ]
}`

// crossValidationJob is a five-fold cross validation over 40 000 boxed rows,
// through mdf.CrossValidate and mdf.Fold.
func crossValidationJob() (*graph.Graph, error) {
	rows := make([]dataset.Row, 40000)
	for i := range rows {
		rows[i] = float64((i*37)%101) / 10
	}
	b := mdf.NewBuilder()
	src := b.Source("src", mdf.SourceFunc(func() *dataset.Dataset {
		return dataset.FromRows("in", rows, 4, 1<<12)
	}), 0.001)
	src.CrossValidate(mdf.CrossValidationSpec{
		Name:  "cv",
		Folds: 5,
		Train: func(fold, folds int) graph.TransformFunc {
			return mdf.WholeDataset("train", func(in *dataset.Dataset) (*dataset.Dataset, error) {
				train, validate := mdf.Fold[dataset.Row](in, fold, folds)
				var mean float64
				for _, r := range train {
					mean += r.(float64) / float64(len(train))
				}
				var sse float64
				for _, r := range validate {
					sse += (r.(float64) - mean) * (r.(float64) - mean)
				}
				return dataset.FromRows("model", []dataset.Row{mean, sse}, 1, 16), nil
			})
		},
		Evaluate:  mdf.FuncEvaluator("neg-sse", func(d *dataset.Dataset) float64 { return -d.Rows()[1].(float64) }),
		CostPerMB: 0.001,
	}).Then("sink", mdf.Identity("out"), 0.001)
	return b.Build()
}

// startRun builds the job and prepares a run of it on the default cluster,
// AMM and incremental as the benchmark's library workloads run theirs.
func startRun(t *testing.T, name string, build func() (*graph.Graph, error), sched scheduler.Policy) *engine.Run {
	t.Helper()
	g, err := build()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	plan, err := graph.BuildPlan(g)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	run, err := engine.NewRun(plan, engine.Options{
		Cluster: cluster.MustNew(cluster.DefaultConfig()), Policy: memorymgr.AMM,
		Scheduler: sched, Incremental: true,
	}, 0)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return run
}

// TestWorkloadsSerialEqualPooled runs every job kind the repository builds —
// the four workloads of the paper, a compiled spec, a cross validation — on
// one processor and on four, and requires the same virtual end, counters,
// selections and output rows. Its other purpose is the race detector's: on
// four processors the operator and evaluator functions of internal/mdf,
// internal/spec and internal/workload/... run on the engine's pool
// goroutines, concurrently with one another, whatever the machine the test
// runs on.
func TestWorkloadsSerialEqualPooled(t *testing.T) {
	jobs := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"synthetic", func() (*graph.Graph, error) {
			p := synthetic.Defaults()
			p.Rows, p.OpsPerItem, p.OuterBranches, p.InnerBranches = 20000, 16, 3, 4
			return synthetic.BuildMDF(p)
		}},
		{"kde", func() (*graph.Graph, error) {
			p := kde.Defaults()
			p.Rows, p.Bandwidths = 4000, []float64{0.1, 0.3}
			return kde.BuildMDF(p)
		}},
		{"kde-scoped", func() (*graph.Graph, error) {
			p := kde.DefaultScoped()
			p.Bandwidths = []float64{0.2}
			return kde.BuildScopedMDF(p)
		}},
		{"timeseries", func() (*graph.Graph, error) {
			p := timeseries.Defaults()
			p.Rows = 6000
			return timeseries.BuildMDF(p)
		}},
		{"timeseries-flat", func() (*graph.Graph, error) {
			p := timeseries.Defaults()
			p.Rows = 6000
			return timeseries.BuildFlatMDF(p, mdf.TopK(2), false)
		}},
		{"dnn", func() (*graph.Graph, error) {
			p := dnn.Defaults()
			p.Train, p.Val, p.Dims, p.Hidden = 120, 60, 16, 8
			p.Inits = p.Inits[:4]
			p.LearningRates, p.Momenta = []float64{0.001, 0.01}, []float64{0.5, 0.9}
			return dnn.BuildEarlyChooseMDF(p)
		}},
		{"spec", func() (*graph.Graph, error) {
			sp, err := spec.Parse([]byte(pooledSpec))
			if err != nil {
				return nil, err
			}
			return sp.Compile()
		}},
		{"cross-validation", crossValidationJob},
	}
	type outcome struct {
		end        string
		metrics    engine.Metrics
		selections map[string][]int
		rows       []dataset.Row
		adopted    int
	}
	adopted := 0
	for _, j := range jobs {
		observe := func(procs int) outcome {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			run := startRun(t, j.name, j.build, scheduler.BAS(nil))
			res, err := run.RunToCompletion()
			if err != nil {
				t.Fatalf("%s: %v", j.name, err)
			}
			return outcome{
				end: fmt.Sprint(res.End), metrics: res.Metrics, selections: run.ChooseSelections(),
				rows: res.Output.Rows(), adopted: run.AdoptedAhead(),
			}
		}
		serial, pooled := observe(1), observe(4)
		if serial.adopted != 0 {
			t.Errorf("%s: %d stages computed ahead on one processor", j.name, serial.adopted)
		}
		// How many stages another goroutine got to first is a matter of
		// timing; that some were is checked over all the jobs together.
		adopted += pooled.adopted
		switch {
		case serial.end != pooled.end:
			t.Errorf("%s: virtual end %s on one processor, %s on four", j.name, serial.end, pooled.end)
		case serial.metrics != pooled.metrics:
			t.Errorf("%s: metrics on one processor\n %+v\non four\n %+v", j.name, serial.metrics, pooled.metrics)
		case !reflect.DeepEqual(serial.selections, pooled.selections):
			t.Errorf("%s: selections %v on one processor, %v on four", j.name, serial.selections, pooled.selections)
		case !reflect.DeepEqual(serial.rows, pooled.rows): // follows the dnn job's model pointer
			t.Errorf("%s: output rows differ between one processor and four", j.name)
		}
	}
	if adopted < len(jobs) {
		t.Errorf("%d stages computed ahead over %d jobs: the pool was hardly reached", adopted, len(jobs))
	}
}

// TestSmallJobsOfferNothing pins the gate from its other side: the job
// shapes of the benchmark's lib-engine workload (a 120-branch nested
// synthetic MDF over 64 rows, the flat 256-branch masking explore over 100
// rows with top-4 and with first-4 under a sorted hint) and of its serve
// workloads (a nested spec over 256 rows) hold a few microseconds of work a
// stage, and on four processors not one of their stages is offered to
// another goroutine: the state the pool needs is never allocated, and the
// run pays the gate's row count per stage and nothing else.
func TestSmallJobsOfferNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var windows []int
	var thresholds []float64
	for i := 0; i < 16; i++ {
		windows = append(windows, 2+i)
		thresholds = append(thresholds, 1+0.0005*float64(i+1))
	}
	tp := timeseries.Defaults()
	tp.Rows, tp.WindowLengths, tp.Thresholds = 100, windows, thresholds
	jobs := []struct {
		name  string
		sched scheduler.Policy
		build func() (*graph.Graph, error)
	}{
		{"synthetic-120", scheduler.BAS(nil), func() (*graph.Graph, error) {
			p := synthetic.Defaults()
			p.Rows, p.OuterBranches, p.InnerBranches = 64, 10, 12
			return synthetic.BuildMDF(p)
		}},
		{"flat-256-top4", scheduler.BAS(nil), func() (*graph.Graph, error) {
			return timeseries.BuildFlatMDF(tp, mdf.TopK(4), false)
		}},
		{"flat-256-first4", scheduler.BAS(scheduler.SortedHint(false)), func() (*graph.Graph, error) {
			return timeseries.BuildFlatMDF(tp, mdf.KThreshold(4, tp.MaskKeepRatio, false), true)
		}},
		{"spec-256", scheduler.BAS(nil), func() (*graph.Graph, error) {
			sp, err := spec.Parse([]byte(strings.Replace(pooledSpec, `"rows": 4096`, `"rows": 256`, 1)))
			if err != nil {
				return nil, err
			}
			return sp.Compile()
		}},
	}
	for _, j := range jobs {
		run := startRun(t, j.name, j.build, j.sched)
		for run.Step() {
			if run.OfferedAhead() {
				t.Fatalf("%s: a stage passed the gate", j.name)
			}
		}
		if err := run.Err(); err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		if n := run.AdoptedAhead(); n != 0 {
			t.Errorf("%s: %d stages computed ahead", j.name, n)
		}
	}
}
