package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/session.*.golden from the current service")

// nestedSpec is a 3×3 nested explore cut into stages by its wide operators,
// the shape of the serve benchmark's spec mix.
const nestedSpec = `{
  "name": "nested",
  "source": {"rows": 96, "partitions": 4, "virtualBytes": 805306368, "distribution": "bimodal", "seed": 11},
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
            {"label": "limit=0.4", "params": {"limit": 0.4}},
            {"label": "limit=0.7", "params": {"limit": 0.7}},
            {"label": "limit=1.0", "params": {"limit": 1.0}}
          ],
          "body": [
            {"op": {"name": "keep", "fn": "filter-absless", "paramKey": "limit", "costPerMB": 0.002}},
            {"op": {"name": "rescale", "fn": "standardize"}},
            {"op": {"name": "fold", "fn": "square"}}
          ],
          "choose": {"evaluator": "size", "selector": {"kind": "topk", "k": 2}, "costPerMB": 0.0005}
        }},
        {"op": {"name": "magnitude", "fn": "abs"}},
        {"op": {"name": "spread", "fn": "normalize"}}
      ],
      "choose": {"evaluator": "stddev", "selector": {"kind": "max"}, "costPerMB": 0.0005}
    }},
    {"op": {"name": "sink", "fn": "identity"}}
  ]
}`

// keepFaults makes the first inner branch to run "keep" panic through its
// three attempts (the branch is quarantined) and the second one recover on
// its second attempt (a retry).
const keepFaults = `{"panics": [{"op": "keep", "target": "transform", "times": 4}]}`

// turn takes one turn of the step loop on a server whose loop goroutine was
// never started, and reports whether there was work to do. Nothing else
// runs against the server, so the work it saw is the work the turn finds.
func turn(s *Server) bool {
	s.mu.Lock()
	work := s.hasWorkLocked()
	s.mu.Unlock()
	return work && s.turn()
}

// TestSessionGoldenAcrossCommits pins the bytes of every telemetry surface
// of the service against files captured at the commit before job progress
// became an in-place buffer and retirement stopped building the job's series
// document: the /watch stream, /series, /metrics, the /jobs/{id}/progress of
// a job in the middle of its run and of every job once terminal, and every
// /jobs/{id}. The session is sequential — submit, run to idle, repeat — and
// drives the loop's own turn function from the test goroutine, so "the
// middle of its run" is the same step every time. Its six jobs are a flat
// explore, a nested one, a nested one that loses a branch to quarantine and
// retries another, a job that panics through every service-level attempt, a
// chain of wide operators and a job that overruns its virtual deadline.
//
// The session runs twice, on one processor and on four: with the engine
// computing ready branches ahead on other goroutines wherever it may, and
// with it computing every stage where it is picked, the bytes are the same.
func TestSessionGoldenAcrossCommits(t *testing.T) {
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			sessionGolden(t)
		}()
	}
}

func sessionGolden(t *testing.T) {
	s := newServer(Config{})
	h := s.Handler()
	var progress bytes.Buffer
	submit := func(req JobRequest) {
		t.Helper()
		if _, err := s.Submit(req); err != nil {
			t.Fatalf("submit %d: %v", s.seq+1, err)
		}
	}
	idle := func() {
		for turn(s) {
		}
	}
	raw := func(doc string) json.RawMessage { return json.RawMessage(doc) }

	submit(JobRequest{Tenant: "a", Spec: raw(okSpec)})
	idle()
	submit(JobRequest{Tenant: "b", Priority: 1, Spec: raw(nestedSpec)})
	for i := 0; i < 17; i++ {
		turn(s)
	}
	mid := get(t, h, "/jobs/job-0002/progress").Body.Bytes()
	var ps ProgressStatus
	if err := json.Unmarshal(mid, &ps); err != nil {
		t.Fatal(err)
	}
	if ps.State != StateRunning || ps.StagesExecuted == 0 || ps.Done {
		t.Fatalf("job-0002 after 17 turns is not mid-run: %s", mid)
	}
	progress.Write(mid)
	idle()
	submit(JobRequest{Tenant: "a", Spec: raw(nestedSpec), Faults: raw(keepFaults)})
	idle()
	submit(JobRequest{Tenant: "c", Spec: raw(boomSpec), Faults: raw(boomFaults)})
	idle()
	submit(JobRequest{Tenant: "b", Spec: raw(longSpec)})
	idle()
	submit(JobRequest{Tenant: "a", DeadlineSec: 12, Spec: raw(nestedSpec)})
	idle()

	var jobs bytes.Buffer
	for _, id := range s.order {
		progress.Write(get(t, h, "/jobs/"+id+"/progress").Body.Bytes())
		jobs.Write(get(t, h, "/jobs/"+id).Body.Bytes())
	}
	for _, want := range []string{`"state": "quarantined"`, `"state": "running"`, `"state": "scored"`} {
		if !bytes.Contains(progress.Bytes(), []byte(want)) {
			t.Errorf("no branch of the session ends %s", want)
		}
	}
	for _, want := range []string{`"state": "done"`, `"state": "failed"`, `"attempts": 3`, "virtual deadline exceeded"} {
		if !bytes.Contains(jobs.Bytes(), []byte(want)) {
			t.Errorf("no job of the session shows %s", want)
		}
	}

	for _, a := range []struct {
		file string
		got  []byte
	}{
		{"session.watch.golden", get(t, h, "/watch").Body.Bytes()},
		{"session.series.golden", get(t, h, "/series").Body.Bytes()},
		{"session.metrics.golden", get(t, h, "/metrics").Body.Bytes()},
		{"session.progress.golden", progress.Bytes()},
		{"session.jobs.golden", jobs.Bytes()},
	} {
		path := filepath.Join("testdata", a.file)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, a.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.got, want) {
			t.Errorf("%s differs from the golden:\n got  %.600s\n want %.600s", a.file, a.got, want)
		}
	}
}
