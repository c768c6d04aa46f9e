package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"metadataflow/internal/engine"
)

// TestProgressReturnsCopy pins the ownership rule of job.progress: the step
// loop rewrites one buffer in place, so what Server.Progress hands out must
// share nothing with it. Two identical servers are stepped in lockstep. A
// result read from the first is defaced and one read from the second is
// kept; nine steps later, and again once the job is terminal, the kept one
// must read as it did when taken and both servers must report the same
// progress.
func TestProgressReturnsCopy(t *testing.T) {
	start := func() *Server {
		s := newServer(Config{})
		submitOK(t, s, "a", nestedSpec, "")
		for i := 0; i < 9; i++ {
			turn(s)
		}
		return s
	}
	read := func(s *Server) ProgressStatus {
		t.Helper()
		ps, err := s.Progress("job-0001")
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	s, ref := start(), start()

	defaced, kept := read(s), read(ref)
	if kept.State != StateRunning || len(kept.Branches) != 12 {
		t.Fatalf("job not mid-run with 12 branches after 9 steps: %+v", kept)
	}
	keptJSON, err := json.Marshal(kept)
	if err != nil {
		t.Fatal(err)
	}
	for i := range defaced.Branches {
		defaced.Branches[i] = engine.BranchProgress{Scope: -1, Choose: "defaced", State: "defaced", Score: -1}
	}
	for i := 0; i < 9; i++ {
		turn(s)
		turn(ref)
	}
	for _, stage := range []string{"nine steps later", "once the job is terminal"} {
		if again, err := json.Marshal(kept); err != nil || !bytes.Equal(again, keptJSON) {
			t.Fatalf("a result read at step 9 changed %s (%v):\n now  %s\n then %s", stage, err, again, keptJSON)
		}
		later := read(ref)
		if reflect.DeepEqual(later.Branches, kept.Branches) {
			t.Fatalf("%s no branch has moved: the test shows nothing", stage)
		}
		if got := read(s); !reflect.DeepEqual(got, later) {
			t.Fatalf("%s, writing to an earlier result has reached the job's progress:\n got  %+v\n want %+v", stage, got, later)
		}
		for turn(s) {
			turn(ref)
		}
	}
}

// TestWatchEventsResume reads the watch log from every resume point: seq is
// dense from 1, so resuming after seq n returns the events from index n on,
// a copy the caller may keep.
func TestWatchEventsResume(t *testing.T) {
	s := newServer(Config{})
	if got := s.WatchEvents(0); got != nil {
		t.Fatalf("empty log: WatchEvents(0) = %v, want nil", got)
	}
	for _, tenant := range []string{"a", "b"} {
		submitOK(t, s, tenant, okSpec, "")
	}
	for turn(s) {
	}
	all := s.WatchEvents(0)
	if len(all) < 8 {
		t.Fatalf("log has %d events, want the lifecycle and bucket events of two jobs", len(all))
	}
	for i, ev := range all {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	for _, c := range []struct {
		name  string
		after int
		want  []WatchEvent
	}{
		{"before the first seq", -3, all},
		{"mid-log", 3, all[3:]},
		{"one before the end", len(all) - 1, all[len(all)-1:]},
		{"at the end", len(all), nil},
		{"past the end", len(all) + 7, nil},
	} {
		if got := s.WatchEvents(c.after); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: WatchEvents(%d) = %v, want %v", c.name, c.after, got, c.want)
		}
	}
	tail := s.WatchEvents(3)
	tail[0].Job = "scribbled"
	if again := s.WatchEvents(3); again[0].Job == "scribbled" {
		t.Error("WatchEvents handed out the log itself, not a copy")
	}
}
