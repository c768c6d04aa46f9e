package service

import (
	"encoding/json"
	"net/http"
	"slices"
	"strings"

	"metadataflow/internal/engine"
	"metadataflow/internal/obs"
)

// This file is the service's live-telemetry surface:
//
//	GET /jobs/{id}/progress  per-branch completion and live scores
//	GET /watch               NDJSON stream of lifecycle + bucket events
//	GET /series              service-level mdf.series/v1 document
//
// Everything here is deterministic for a fixed submission sequence. The
// step loop is the only writer of job progress and of run-derived watch
// events; submission-side events (queued, shed, quota/quarantine
// rejections) are appended by the submitting goroutine under s.mu in
// submission order. Service-level series (admission queue depth,
// per-tenant shed/retry/quarantine rates, quota reservations) span jobs
// and therefore have no single virtual clock; they are stamped with a
// logical event-sequence time — one virtual second per service event —
// exactly like the quota pool's reservation clock it shares a recorder
// with.

// WatchSchema identifies the /watch NDJSON stream format: one JSON header
// line carrying the schema and bucket width, then one JSON object per
// event in seq order.
const WatchSchema = "mdf.watch/v1"

// WatchHeader is the first NDJSON line of a /watch stream.
type WatchHeader struct {
	Schema    string  `json:"schema"`
	BucketSec float64 `json:"bucketSec"`
}

// WatchEvent is one /watch stream event. Lifecycle events record a job
// state transition at its virtual time; bucket events replay the
// master-node gauge series of a retired job (branch completion fractions,
// branch scores, scheduler queue depth) one virtual-time bucket at a
// time. Events carry a dense seq so clients can resume and tests can
// byte-compare double runs.
type WatchEvent struct {
	Seq    int    `json:"seq"`
	Kind   string `json:"kind"` // "lifecycle" or "bucket"
	Job    string `json:"job"`
	Tenant string `json:"tenant"`
	// State is the job state entered (lifecycle events only).
	State string `json:"state,omitempty"`
	// TSec is the job's virtual time at a lifecycle transition.
	TSec float64 `json:"tSec"`
	// Bucket indexes the virtual-time bucket of a bucket event; Values
	// maps master-node gauge series to their value in that bucket
	// (encoding/json emits map keys sorted, keeping the bytes canonical).
	Bucket int                `json:"bucket,omitempty"`
	Values map[string]float64 `json:"values,omitempty"`
}

// ProgressStatus is the GET /jobs/{id}/progress document: the engine's
// per-branch progress view wrapped with job identity. Queued jobs carry an
// empty Progress; terminal jobs keep their final one.
type ProgressStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	State  string `json:"state"`
	engine.Progress
}

// Progress returns the live exploration progress of one job. The stored
// progress is refreshed in place by the step loop after every engine step,
// so what is returned is a copy, branches included: the caller's to keep,
// and unchanged by the job's later steps.
func (s *Server) Progress(id string) (ProgressStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return ProgressStatus{}, ErrNotFound
	}
	p := j.progress
	p.Branches = slices.Clone(p.Branches)
	return ProgressStatus{ID: j.id, Tenant: j.tenant, State: j.state, Progress: p}, nil
}

// Series returns the service-level mdf.series/v1 document: per-tenant
// quota reservation/headroom gauges and admission-event series on the
// shared logical clock.
func (s *Server) Series() *obs.SeriesDoc {
	return s.rec.Series(watchBucketSec)
}

// watchBucketsLocked appends a retired job's master-node gauges to the watch
// log as bucket events, one per populated bucket, in the ascending bucket
// order the recorder returns them in. The value maps become the events'
// own; encoding/json sorts their keys, so the event bytes are canonical.
func (s *Server) watchBucketsLocked(j *job, gauges []obs.GaugeBucket) {
	for _, g := range gauges {
		s.watchSeq++
		s.watch = append(s.watch, WatchEvent{
			Seq: s.watchSeq, Kind: "bucket",
			Job: j.id, Tenant: j.tenant, Bucket: g.Bucket, Values: g.Values,
		})
	}
	s.cond.Broadcast()
}

// WatchEvents returns a copy of the watch log after seq afterSeq. Seq is
// dense from 1, so event seq sits at index seq-1 and a resume costs what it
// returns, not the history before it.
func (s *Server) WatchEvents(afterSeq int) []WatchEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	afterSeq = max(afterSeq, 0)
	if afterSeq >= len(s.watch) {
		return nil
	}
	return slices.Clone(s.watch[afterSeq:])
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	st, err := s.Progress(strings.TrimSpace(r.PathValue("id")))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err := s.Series().WriteJSON(w); err != nil {
		return
	}
}

// handleWatch streams the watch log as NDJSON: a header line, then every
// event in seq order. Plain GET replays the current log and closes;
// ?follow=1 keeps the stream open, flushing new events as the step loop
// appends them, until the service goes idle (no queued or active jobs).
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	follow := r.URL.Query().Get("follow") != ""
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	if err := enc.Encode(WatchHeader{Schema: WatchSchema, BucketSec: watchBucketSec}); err != nil {
		return
	}
	next := 0
	for {
		s.mu.Lock()
		for follow && next >= len(s.watch) && s.hasWorkLocked() {
			s.cond.Wait()
		}
		evs := s.watch[next:]
		next = len(s.watch)
		more := follow && s.hasWorkLocked()
		s.mu.Unlock()
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		if !more {
			return
		}
	}
}
