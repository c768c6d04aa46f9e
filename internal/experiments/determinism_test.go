package experiments

import (
	"fmt"
	"strings"
	"testing"

	"metadataflow/internal/cluster"
	"metadataflow/internal/engine"
	"metadataflow/internal/faults"
	"metadataflow/internal/graph"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/obs"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/workload/synthetic"
)

// TestReliabilityDeterministic is the determinism regression test backing
// the mdf lint rules: the full reliability sweep (fault injection, recovery,
// both schedulers) must replay bit-identically for a given seed. A diff
// here means wall-clock time, unseeded randomness or map-iteration order
// leaked into the simulator — exactly what the linter exists to keep out.
func TestReliabilityDeterministic(t *testing.T) {
	run := func() string {
		tab, err := Reliability(Options{Seeds: 1, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		return tab.CSV()
	}
	first := run()
	second := run()
	if first != second {
		t.Fatalf("reliability sweep is not deterministic:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
	if strings.Count(first, "\n") < 2 {
		t.Fatalf("suspiciously small sweep output:\n%s", first)
	}
}

// TestTracedFaultRunDeterministic replays one fault-injected, traced MDF
// run twice and compares the complete observable output byte for byte:
// the execution timeline (every stage's virtual start and end), every
// metrics field, and the quarantine records.
func TestTracedFaultRunDeterministic(t *testing.T) {
	run := func() string {
		p := synthetic.Defaults()
		p.Seed = 7
		p.Rows = 400
		g, err := synthetic.BuildMDF(p)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(clusterConfig(4, 10*gb))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := graph.BuildPlan(g)
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder()
		r, err := engine.NewRun(plan, engine.Options{
			Cluster: cl, Policy: memorymgr.AMM,
			Scheduler: scheduler.BAS(nil), Incremental: true, Probe: rec,
			Faults: &faults.Plan{Crashes: []faults.Crash{{Node: 1, AfterStages: 3}}},
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunToCompletion()
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := rec.WriteTimeline(&b); err != nil {
			t.Fatal(err)
		}
		// %+v over the whole structs: every field participates, including
		// ones added after this test was written.
		fmt.Fprintf(&b, "completion=%v\nmetrics=%+v\nquarantined=%+v\n",
			res.CompletionTime(), res.Metrics, res.Quarantined)
		return b.String()
	}
	first := run()
	second := run()
	if first != second {
		t.Fatalf("traced fault run is not deterministic:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
	if !strings.Contains(first, "metrics=") {
		t.Fatalf("missing metrics section:\n%s", first)
	}
}
