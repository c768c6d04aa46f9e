package engine

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"metadataflow/internal/cluster"
	"metadataflow/internal/faults"
	"metadataflow/internal/graph"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/obs"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/stats"
)

// TestTelemetryGoldenAcrossCommits pins the bytes of every telemetry
// artifact of one run against files captured at the commit before the
// recorder's write path and the series builder were rewritten. The
// determinism tests next to it compare a run with itself, so they hold for
// any change that is merely consistent; this one fails when a byte of the
// Chrome trace, the decision log, the mdf.series/v1 document (at two bucket
// widths) or the metrics snapshot moves. The run is a seeded nested MDF
// under BAS and AMM with too little memory to hold its datasets, a branch
// operator and an evaluator that panic past the retry budget (quarantine),
// one that recovers within it (retry) and a node restart. Regenerate with
// -update only for an intended change of a telemetry format.
//
// The run is made twice, on one processor and on four: whether the engine may
// compute ready branches ahead on other goroutines or not, the bytes are the
// same (none of this run's stages passes the gate; TestSerialEqualsPooled
// compares the same artifacts over runs whose stages do).
func TestTelemetryGoldenAcrossCommits(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withProcs(procs, func() { telemetryGolden(t) })
	}
}

func telemetryGolden(t *testing.T) {
	g, branchOps := refMDF(t, stats.NewRNG(6*31))
	plan, err := graph.BuildPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Scopes) < 3 {
		t.Fatalf("seeded MDF has %d scopes, want a nested one", len(plan.Scopes))
	}
	cfg := cluster.DefaultConfig()
	cfg.Workers = 4
	cfg.MemPerWorker = 192 << 10
	rec := obs.NewRecorder()
	run, err := NewRun(plan, Options{
		Cluster:     cluster.MustNew(cfg),
		Policy:      memorymgr.AMM,
		Scheduler:   scheduler.BAS(nil),
		Incremental: true,
		Probe:       rec,
		Faults: &faults.Plan{
			Panics: []faults.PanicSpec{
				{Op: branchOps[2], Target: faults.TargetTransform, Times: 99},
				{Op: branchOps[len(branchOps)-1], Target: faults.TargetTransform, Times: 1},
				{Target: faults.TargetEval, Times: 3},
			},
			Crashes: []faults.Crash{{Node: 1, AfterStages: 4}},
		},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.RunToCompletion()
	if err != nil {
		t.Fatal(err)
	}
	// The golden is only worth its bytes if the run took the paths named
	// above.
	m := res.Metrics
	if m.Mem.Evictions == 0 || m.BranchesQuarantined == 0 || m.Retries == 0 || m.NodeCrashes == 0 || m.StagesPruned == 0 {
		t.Fatalf("run too tame for a golden: %d evictions, %d quarantined, %d retries, %d crashes, %d pruned",
			m.Mem.Evictions, m.BranchesQuarantined, m.Retries, m.NodeCrashes, m.StagesPruned)
	}

	artifacts := []struct {
		file  string
		write func(*bytes.Buffer) error
	}{
		{"telemetry.trace.golden", func(b *bytes.Buffer) error { return rec.WriteChromeTrace(b) }},
		{"telemetry.decisions.golden", func(b *bytes.Buffer) error { return rec.WriteDecisions(b) }},
		{"telemetry.series.golden", func(b *bytes.Buffer) error { return rec.Series(0).WriteJSON(b) }},
		{"telemetry.series-fine.golden", func(b *bytes.Buffer) error { return rec.Series(0.7).WriteJSON(b) }},
		{"telemetry.snapshot.golden", func(b *bytes.Buffer) error { return run.Snapshot().WriteJSON(b) }},
	}
	for _, a := range artifacts {
		var buf bytes.Buffer
		if err := a.write(&buf); err != nil {
			t.Fatalf("%s: %v", a.file, err)
		}
		path := filepath.Join("testdata", a.file)
		if *updateGolden {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: %d bytes differ from the golden's %d; first difference at byte %d",
				a.file, buf.Len(), len(want), firstDiff(buf.Bytes(), want))
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
