package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/mdf"
	"metadataflow/internal/scheduler"
)

// checkPayloads compares the stageOut table with what the lifetime rule (R3)
// says it must hold. held remembers, per stage, the dataset the stage was
// first seen holding; from then on the slot holds that dataset exactly as
// long as it is live — no slot keeps a discarded payload reachable, and no
// live dataset loses a slot, its producer's or a forwarder's.
func checkPayloads(r *Run, held []*dataset.Dataset) error {
	for _, st := range r.plan.Stages {
		d := r.stageOut[st.ID]
		if held[st.ID] == nil {
			held[st.ID] = d
		}
		want := held[st.ID]
		if want != nil && r.datasets[want.ID] != want {
			want = nil // discarded
		}
		if d != want {
			return fmt.Errorf("stage %s holds %v, the lifetime rule says %v", st, d, want)
		}
	}
	for id, d := range r.datasets {
		if prod := r.producerOf[id]; r.stageOut[prod] != d {
			return fmt.Errorf("live dataset %v is not in the slot of its producer T%d", d, prod)
		}
	}
	for id := range r.protectedIDs {
		if _, live := r.datasets[id]; !live {
			return fmt.Errorf("protected dataset %d was discarded", id)
		}
	}
	return nil
}

// TestPayloadsFollowLifetimeRule steps every run of the reference sweep and
// checks the payload table after each Step. That the runs finish at all says
// the rest: an explore, a stage or a choose that found its input's slot
// cleared fails the run (execChoose reads the selected branch's dataset when
// the choose executes, long after an incremental session scored it).
func TestPayloadsFollowLifetimeRule(t *testing.T) {
	for _, c := range refCases(t) {
		r, _, p := c.start(t)
		held := make([]*dataset.Dataset, len(p.Stages))
		for step, alive := 0, true; alive; step++ {
			alive = r.Step()
			if err := checkPayloads(r, held); err != nil {
				t.Fatalf("%s: after step %d: %v", c.name, step, err)
			}
		}
		if r.Err() != nil {
			t.Fatalf("%s: %v", c.name, r.Err())
		}
		if r.metrics.DatasetsDiscarded == 0 {
			t.Errorf("%s: the run discarded nothing, the check saw no payload dropped", c.name)
		}
		if r.Result().Output == nil {
			t.Errorf("%s: no output", c.name)
		}
	}
}

// TestRunOutcomeGoldenAcrossCommits pins what dropping payloads must not
// change, against testdata/outcomes.golden, captured from the engine that
// kept every payload until the run was dropped: per run of the reference
// sweep, what CheckpointLive finds halfway, the choose selections, the
// lineage and accounting audits, the result's metrics and quarantines, and
// the output rows.
func TestRunOutcomeGoldenAcrossCommits(t *testing.T) {
	var out strings.Builder
	for _, c := range refCases(t) {
		r, _, p := c.start(t)
		for i := 0; i < len(p.Stages)/2 && r.Step(); i++ {
		}
		ckpt := r.CheckpointLive()
		mid := r.Now()
		res, err := r.RunToCompletion()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sels := r.ChooseSelections()
		labels := make([]string, 0, len(sels))
		for l := range sels {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		var chosen []string
		for _, l := range labels {
			chosen = append(chosen, fmt.Sprintf("%s=%v", l, sels[l]))
		}
		fmt.Fprintf(&out, "%s: ckpt=%d@%v again=%d lineage=%v accounting=%v selections=%s result=%s output=%s\n",
			c.name, ckpt, mid, r.CheckpointLive(), r.AuditLineage(), r.AuditAccounting(),
			digest(chosen), digest(fmt.Sprintf("%v %v %+v %+v", res.Start, res.End, res.Metrics, res.Quarantined)),
			digest(res.Output.Rows()))
	}
	checkGoldenLines(t, "outcomes.golden", "run outcome", out.String())
}

// What a choose emits reads whole as its selection does: a single selected
// branch is forwarded, column and all, so downstream operators view it; a
// multi-selection is a concatenation, which Flatten copies, in branch order.
func TestFlattenOfChooseOutput(t *testing.T) {
	for _, tc := range []struct {
		sel   mdf.Selector
		want  []float64
		views bool
	}{
		{mdf.Max(), []float64{3, 6, 9, 12}, true},
		{mdf.TopK(2), []float64{2, 4, 6, 8, 3, 6, 9, 12}, false},
	} {
		b := mdf.NewBuilder()
		sum := mdf.FuncEvaluator("sum", func(d *dataset.Dataset) float64 {
			var s float64
			for _, v := range dataset.Flatten[float64](d) {
				s += v
			}
			return s
		})
		b.Source("src", mdf.SourceFromDataset(dataset.FromSlice("in", []float64{1, 2, 3, 4}, 2, 1<<20)), 0.001).
			Explore("scale", mdf.Branches("x1", "x2", "x3"), mdf.NewChooser(sum, tc.sel),
				func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
					f := spec.Hint + 1
					return start.Then(spec.Label, mdf.Map(spec.Label, 1.0, func(v float64) float64 { return f * v }), 0.001)
				}).
			Then("sink", mdf.Identity("out"), 0.001)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := cluster.DefaultConfig()
		cfg.Workers = 2
		res, err := Execute(g, Options{Cluster: cluster.MustNew(cfg), Scheduler: scheduler.BFS()})
		if err != nil {
			t.Fatal(err)
		}
		var got []float64
		allocs := testing.AllocsPerRun(5, func() { got = dataset.Flatten[float64](res.Output) })
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: output reads %v, want %v", tc.sel.Name(), got, tc.want)
		}
		if view := allocs == 0; view != tc.views {
			t.Errorf("%s: Flatten of the output is a view = %v, want %v", tc.sel.Name(), view, tc.views)
		}
	}
}
