package engine_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"metadataflow/internal/engine"
	"metadataflow/internal/mdf"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/obs"
	"metadataflow/internal/scheduler"
)

// The timeline is the recorder's task spans folded to one row per
// (kind, name) — what `mdf run -trace` prints.

func TestTimelineRecorded(t *testing.T) {
	rec, _ := recordedRun(t, engine.Options{
		Cluster: testCluster(1 << 30), Policy: memorymgr.AMM,
		Scheduler: scheduler.BAS(nil), Incremental: true,
	})
	rows := rec.TimelineRows()
	if len(rows) == 0 {
		t.Fatal("no timeline recorded with a probe attached")
	}
	kinds := map[obs.Kind]int{}
	for _, row := range rows {
		kinds[row.Kind]++
		if row.End < row.Start {
			t.Errorf("row %s ends before it starts: %v < %v", row.Name, row.End, row.Start)
		}
	}
	if kinds[obs.KindStage] == 0 || kinds[obs.KindEval] != 3 || kinds[obs.KindChoose] != 1 {
		t.Errorf("unexpected event mix: %v", kinds)
	}
}

// TestTimelineOffByDefault: Options carry no probe unless the caller
// attaches one, and a run without one completes exactly like the run a
// recorder watched — the probe observes, it never steers.
func TestTimelineOffByDefault(t *testing.T) {
	opts := engine.Options{Policy: memorymgr.AMM, Scheduler: scheduler.BAS(nil)}
	opts.Cluster = testCluster(1 << 30)
	plain := runMDF(t, buildFilterMDF(t, mdf.Max(), mdf.SizeEvaluator()), opts)
	opts.Cluster = testCluster(1 << 30)
	_, run := recordedRun(t, opts)
	traced := run.Result()
	if plain.CompletionTime() != traced.CompletionTime() || plain.Metrics != traced.Metrics {
		t.Errorf("attaching a probe changed the run:\nplain  %v %+v\ntraced %v %+v",
			plain.CompletionTime(), plain.Metrics, traced.CompletionTime(), traced.Metrics)
	}
}

func TestTimelineRecordsPruning(t *testing.T) {
	rec := obs.NewRecorder()
	runMDF(t, buildFilterMDF(t, mdf.KThreshold(1, 50, false), mdf.SizeEvaluator()), engine.Options{
		Cluster: testCluster(1 << 30), Policy: memorymgr.AMM,
		Scheduler: scheduler.BAS(nil), Incremental: true, Probe: rec,
	})
	pruned := 0
	for _, row := range rec.TimelineRows() {
		if row.Kind == obs.KindPruned {
			pruned++
			if row.Start != row.End {
				t.Error("pruning events must be instantaneous")
			}
		}
	}
	if pruned != 2 {
		t.Errorf("pruned events = %d, want 2", pruned)
	}
}

func TestTraceFormatters(t *testing.T) {
	rec, _ := recordedRun(t, engine.Options{
		Cluster: testCluster(1 << 30), Policy: memorymgr.AMM,
		Scheduler: scheduler.BAS(nil), Incremental: true,
	})
	var text strings.Builder
	if err := rec.WriteTimeline(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stage", "eval", "events"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text timeline missing %q:\n%s", want, text.String())
		}
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	data := 0
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" || ev.Phase == "i" {
			data++
		}
	}
	if data != len(rec.Spans()) {
		t.Errorf("chrome span events = %d, want %d", data, len(rec.Spans()))
	}
}
