package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// stagedRun builds a server with every submission queued before the step
// loop starts — the same staging trick the metrics determinism test uses —
// runs it to idle, and hands it to fn. Staging pins the interleaving of
// submissions against admissions, which is the precondition for the
// telemetry byte-compare gates.
func stagedRun(t *testing.T, fn func(s *Server)) {
	t.Helper()
	s := newServer(Config{MaxActive: 2})
	defer s.Close()
	submitOK(t, s, "a", okSpec, "")
	submitOK(t, s, "b", okSpec, "")
	submitOK(t, s, "a", okSpec, "")
	go s.loop()
	s.WaitIdle()
	fn(s)
}

// TestServiceProgressEndpoint pins the GET /jobs/{id}/progress document:
// a terminal job reports full completion with every branch scored or
// pruned, and unknown IDs answer 404.
func TestServiceProgressEndpoint(t *testing.T) {
	stagedRun(t, func(s *Server) {
		h := s.Handler()
		w := get(t, h, "/jobs/job-0001/progress")
		if w.Code != http.StatusOK {
			t.Fatalf("progress status = %d, body %s", w.Code, w.Body)
		}
		var ps ProgressStatus
		if err := json.Unmarshal(w.Body.Bytes(), &ps); err != nil {
			t.Fatal(err)
		}
		if ps.ID != "job-0001" || ps.State != StateDone || !ps.Done {
			t.Fatalf("unexpected progress: %+v", ps)
		}
		if len(ps.Branches) != 2 {
			t.Fatalf("branches = %d, want 2", len(ps.Branches))
		}
		scored := 0
		for _, bp := range ps.Branches {
			if bp.Completion != 1 {
				t.Fatalf("terminal branch incomplete: %+v", bp)
			}
			if bp.State == "scored" {
				scored++
			}
		}
		if scored == 0 {
			t.Fatal("no branch reported scored")
		}
		if w := get(t, h, "/jobs/nope/progress"); w.Code != http.StatusNotFound {
			t.Fatalf("missing job progress status = %d", w.Code)
		}
	})
}

// emptyBranchSpec's "none" branch filters out every row (the allow entry
// admits the filter the plan vetter proves empty), and the neg-mean-abs
// evaluator scores an empty branch −Inf.
const emptyBranchSpec = `{
  "name": "empty-branch",
  "allow": ["emptyfilter"],
  "source": {"rows": 400, "partitions": 4, "virtualBytes": 1048576, "seed": 7},
  "pipeline": [
    {"explore": {
      "name": "e",
      "branches": [{"label": "none", "params": {"limit": 0}}, {"label": "most", "params": {"limit": 1.5}}],
      "body": [{"op": {"name": "f", "fn": "filter-absless", "paramKey": "limit"}}],
      "choose": {"evaluator": "neg-mean-abs", "selector": {"kind": "max"}}
    }}
  ]
}`

// TestServiceProgressNonFiniteScore: a branch scored −Inf has no JSON form,
// and GET /jobs/{id}/progress still answers, the branch scored with its
// score left out; GET /series answers too.
func TestServiceProgressNonFiniteScore(t *testing.T) {
	s := newServer(Config{})
	defer s.Close()
	go s.loop()
	submitOK(t, s, "a", emptyBranchSpec, "")
	s.WaitIdle()
	h := s.Handler()
	w := get(t, h, "/jobs/job-0001/progress")
	if w.Code != http.StatusOK {
		t.Fatalf("progress status = %d, body %s", w.Code, w.Body)
	}
	var ps struct {
		Branches []map[string]any `json:"branches"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &ps); err != nil {
		t.Fatal(err)
	}
	if len(ps.Branches) != 2 {
		t.Fatalf("branches = %d, want 2: %s", len(ps.Branches), w.Body)
	}
	if none := ps.Branches[0]; none["state"] != "scored" || none["score"] != nil {
		t.Errorf("empty branch = %v, want scored with no score", none)
	}
	if most := ps.Branches[1]; most["state"] != "scored" || most["score"] == nil {
		t.Errorf("branch = %v, want scored with its score", most)
	}
	if w := get(t, h, "/series"); w.Code != http.StatusOK || !json.Valid(w.Body.Bytes()) {
		t.Errorf("series status = %d, body %s", w.Code, w.Body)
	}
}

// TestServiceWatchStream validates the /watch NDJSON shape: a schema
// header, a dense seq, the queued→running→terminal lifecycle per job, and
// bucket events carrying branch-progress gauges.
func TestServiceWatchStream(t *testing.T) {
	stagedRun(t, func(s *Server) {
		w := get(t, s.Handler(), "/watch")
		if w.Code != http.StatusOK {
			t.Fatalf("watch status = %d", w.Code)
		}
		sc := bufio.NewScanner(bytes.NewReader(w.Body.Bytes()))
		if !sc.Scan() {
			t.Fatal("empty watch stream")
		}
		var hdr WatchHeader
		if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
			t.Fatal(err)
		}
		if hdr.Schema != WatchSchema || hdr.BucketSec <= 0 {
			t.Fatalf("bad watch header: %+v", hdr)
		}
		states := map[string][]string{}
		buckets := 0
		seq := 0
		for sc.Scan() {
			var ev WatchEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatal(err)
			}
			seq++
			if ev.Seq != seq {
				t.Fatalf("seq gap: got %d, want %d", ev.Seq, seq)
			}
			switch ev.Kind {
			case "lifecycle":
				states[ev.Job] = append(states[ev.Job], ev.State)
			case "bucket":
				buckets++
				found := false
				for name := range ev.Values {
					if strings.HasPrefix(name, "engine.branch_progress.") {
						found = true
					}
				}
				if !found {
					t.Fatalf("bucket event without branch progress: %+v", ev)
				}
			default:
				t.Fatalf("unknown event kind %q", ev.Kind)
			}
		}
		if buckets == 0 {
			t.Fatal("no bucket events in watch stream")
		}
		for job, seqStates := range states {
			want := []string{StateQueued, StateRunning, StateDone}
			if len(seqStates) != len(want) {
				t.Fatalf("job %s lifecycle = %v", job, seqStates)
			}
			for i, st := range want {
				if seqStates[i] != st {
					t.Fatalf("job %s lifecycle = %v, want %v", job, seqStates, want)
				}
			}
		}
		if len(states) != 3 {
			t.Fatalf("lifecycle covers %d jobs, want 3", len(states))
		}
	})
}

// TestServiceTelemetryDeterministic is the acceptance gate: two identical
// staged runs must produce byte-identical /watch streams, per-tenant
// /metrics documents and service-level /series artifacts.
func TestServiceTelemetryDeterministic(t *testing.T) {
	type capture struct{ watch, metrics, series []byte }
	render := func() capture {
		var c capture
		stagedRun(t, func(s *Server) {
			h := s.Handler()
			c.watch = get(t, h, "/watch").Body.Bytes()
			c.metrics = get(t, h, "/metrics").Body.Bytes()
			c.series = get(t, h, "/series").Body.Bytes()
		})
		return c
	}
	first := render()
	for i := 0; i < 2; i++ {
		got := render()
		if !bytes.Equal(first.watch, got.watch) {
			t.Fatalf("watch stream differs between identical runs:\n%s\nvs\n%s", first.watch, got.watch)
		}
		if !bytes.Equal(first.metrics, got.metrics) {
			t.Fatalf("metrics differ between identical runs:\n%s\nvs\n%s", first.metrics, got.metrics)
		}
		if !bytes.Equal(first.series, got.series) {
			t.Fatalf("series differ between identical runs:\n%s\nvs\n%s", first.series, got.series)
		}
	}
	// The per-tenant breakdown and quota series must actually be present.
	for _, name := range []string{
		`"service.tenant.a.jobs_submitted"`,
		`"service.tenant.b.jobs_done"`,
	} {
		if !bytes.Contains(first.metrics, []byte(name)) {
			t.Errorf("metrics missing per-tenant counter %s", name)
		}
	}
	for _, name := range []string{
		`"quota.reserved_bytes.a"`,
		`"quota.headroom_bytes.b"`,
		`"service.submitted.a"`,
		`"service.queue_depth"`,
	} {
		if !bytes.Contains(first.series, []byte(name)) {
			t.Errorf("series missing %s", name)
		}
	}
}

// TestServiceWatchFollow exercises follow mode: a watcher attached before
// the step loop starts must stream events live and terminate once the
// service goes idle, having seen every job reach a terminal state.
func TestServiceWatchFollow(t *testing.T) {
	s := newServer(Config{MaxActive: 1})
	defer s.Close()
	submitOK(t, s, "a", okSpec, "")
	submitOK(t, s, "b", okSpec, "")

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/watch?follow=1", nil))
		done <- w
	}()
	go s.loop()
	s.WaitIdle()
	w := <-done

	terminal := 0
	sc := bufio.NewScanner(bytes.NewReader(w.Body.Bytes()))
	sc.Scan() // header
	for sc.Scan() {
		var ev WatchEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind == "lifecycle" && ev.State == StateDone {
			terminal++
		}
	}
	if terminal != 2 {
		t.Fatalf("follow stream saw %d terminal jobs, want 2", terminal)
	}
}
