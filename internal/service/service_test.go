package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"metadataflow/internal/engine"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/obs"
)

// okSpec is a small healthy MDF job: one explore over two filter settings.
const okSpec = `{
  "name": "ok",
  "source": {"rows": 400, "partitions": 4, "virtualBytes": 1048576, "seed": 7},
  "pipeline": [
    {"explore": {
      "name": "e",
      "branches": [{"label": "lo", "params": {"limit": 0.5}}, {"label": "hi", "params": {"limit": 1.5}}],
      "body": [{"op": {"name": "f", "fn": "filter-absless", "paramKey": "limit"}}],
      "choose": {"evaluator": "size", "selector": {"kind": "max"}}
    }}
  ]
}`

// longSpec chains wide operators: every standardize is a stage boundary
// (narrow chains fuse into one stage), so the plan has enough stages that a
// drain's step budget cannot finish it, and enough rows that a step takes
// long enough on the host for a test to observe the job running.
const longSpec = `{
  "name": "long",
  "source": {"rows": 20000, "partitions": 4, "virtualBytes": 1048576, "seed": 7},
  "pipeline": [
    {"op": {"name": "w1", "fn": "standardize"}},
    {"op": {"name": "w2", "fn": "standardize"}},
    {"op": {"name": "w3", "fn": "standardize"}},
    {"op": {"name": "w4", "fn": "standardize"}},
    {"op": {"name": "w5", "fn": "standardize"}},
    {"op": {"name": "w6", "fn": "standardize"}},
    {"op": {"name": "w7", "fn": "standardize"}},
    {"op": {"name": "w8", "fn": "standardize"}},
    {"op": {"name": "w9", "fn": "standardize"}},
    {"op": {"name": "w10", "fn": "standardize"}},
    {"op": {"name": "w11", "fn": "standardize"}},
    {"op": {"name": "w12", "fn": "standardize"}}
  ]
}`

// boomSpec's trunk operator panics on every invocation of the fault plan
// below, so every service-level attempt fails with a panic error.
const boomSpec = `{
  "name": "boom",
  "source": {"rows": 100, "partitions": 2, "virtualBytes": 1048576, "seed": 7},
  "pipeline": [{"op": {"name": "boom", "fn": "square"}}]
}`

const boomFaults = `{"panics": [{"op": "boom", "target": "transform", "times": 1000}]}`

func submitOK(t *testing.T, s *Server, tenant, specJSON, faultsJSON string) JobStatus {
	t.Helper()
	req := JobRequest{Tenant: tenant, Spec: json.RawMessage(specJSON)}
	if faultsJSON != "" {
		req.Faults = json.RawMessage(faultsJSON)
	}
	st, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit for %s: %v", tenant, err)
	}
	return st
}

func TestServiceRunsJobsToCompletion(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		st := submitOK(t, s, fmt.Sprintf("tenant-%d", i), okSpec, "")
		ids = append(ids, st.ID)
	}
	s.WaitIdle()
	for _, id := range ids {
		st, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s state %q (err %q), want done", id, st.State, st.Error)
		}
		if st.CompletionSec <= 0 {
			t.Fatalf("job %s completionSec = %v", id, st.CompletionSec)
		}
		if len(st.Selections) == 0 {
			t.Fatalf("job %s has no choose selections in its explain output", id)
		}
		if len(st.Audit) != 0 {
			t.Fatalf("job %s audit found violations: %v", id, st.Audit)
		}
	}
	m := s.Metrics()
	if got, _ := m.CounterValue("service.jobs_done"); got != 3 {
		t.Fatalf("service.jobs_done = %d, want 3", got)
	}
}

// TestServiceOverloadShedsAndQuotaHolds is acceptance test (a): overload is
// shed with typed errors and no tenant's reservations ever exceed its
// quota.
func TestServiceOverloadShedsAndQuotaHolds(t *testing.T) {
	cfg := Config{
		Workers:      2,
		MemPerWorker: 1 << 20,
		TenantQuota:  2 << 20, // room for exactly one job (2 workers × 1 MiB)
		QueueCap:     2,
		MaxActive:    1,
	}
	// No loop: submissions stack up so the shedding paths are deterministic.
	s := newServer(cfg)

	if _, err := s.Submit(JobRequest{Tenant: "a", Spec: json.RawMessage(okSpec)}); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	// Same tenant again: quota (1 job) is exhausted before the queue is.
	_, err := s.Submit(JobRequest{Tenant: "a", Spec: json.RawMessage(okSpec)})
	var qe *memorymgr.QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("over-quota submit error = %v, want *QuotaError", err)
	}
	if qe.Reserved > qe.Quota {
		t.Fatalf("reservations exceeded quota: %d > %d", qe.Reserved, qe.Quota)
	}
	// A second tenant fills the queue; the third tenant is shed.
	if _, err := s.Submit(JobRequest{Tenant: "b", Spec: json.RawMessage(okSpec)}); err != nil {
		t.Fatalf("tenant b submit: %v", err)
	}
	if _, err := s.Submit(JobRequest{Tenant: "c", Spec: json.RawMessage(okSpec)}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit error = %v, want ErrQueueFull", err)
	}

	// Run everything down and check the quota held throughout.
	go s.loop()
	s.WaitIdle()
	for _, tenant := range []string{"a", "b", "c"} {
		if peak := s.quotas.Peak(tenant); peak > s.quotas.Quota() {
			t.Fatalf("tenant %s peak reservation %d exceeded quota %d", tenant, peak, s.quotas.Quota())
		}
		if left := s.quotas.Reserved(tenant); left != 0 {
			t.Fatalf("tenant %s still holds %d bytes after idle", tenant, left)
		}
	}
	m := s.Metrics()
	if got, _ := m.CounterValue("service.jobs_shed"); got != 1 {
		t.Fatalf("service.jobs_shed = %d, want 1", got)
	}
	if got, _ := m.CounterValue("service.jobs_quota_rejected"); got != 1 {
		t.Fatalf("service.jobs_quota_rejected = %d, want 1", got)
	}
	s.Close()
}

func TestServiceDeadlineCancelsRun(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	st, err := s.Submit(JobRequest{
		Tenant:      "t",
		DeadlineSec: 1e-9, // expires after the first stage
		Spec:        json.RawMessage(longSpec),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.WaitIdle()
	got, err := s.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateFailed {
		t.Fatalf("state = %q (err %q), want failed", got.State, got.Error)
	}
	if !strings.Contains(got.Error, "virtual deadline exceeded") {
		t.Fatalf("error = %q, want deadline cause", got.Error)
	}
	m := s.Metrics()
	if v, _ := m.CounterValue("service.jobs_deadline_exceeded"); v != 1 {
		t.Fatalf("service.jobs_deadline_exceeded = %d, want 1", v)
	}
}

// TestServiceQuarantineIsolatesTenant is acceptance test (c): a spec that
// panics on every attempt burns its retries, trips the tenant's circuit
// breaker, and leaves other tenants' jobs unaffected.
func TestServiceQuarantineIsolatesTenant(t *testing.T) {
	s := New(Config{QuarantineStrikes: 3, QuarantineCooldownJobs: 4})
	defer s.Close()
	bad := submitOK(t, s, "noisy", boomSpec, boomFaults)
	good := submitOK(t, s, "quiet", okSpec, "")
	s.WaitIdle()

	badSt, err := s.Job(bad.ID)
	if err != nil {
		t.Fatal(err)
	}
	if badSt.State != StateFailed {
		t.Fatalf("panicking job state = %q, want failed", badSt.State)
	}
	if badSt.Attempts != 3 {
		t.Fatalf("panicking job attempts = %d, want 3 (retry budget)", badSt.Attempts)
	}
	// Backoff(1) + Backoff(2) = 1 + 2 virtual seconds across the retries.
	if badSt.BackoffSec != 3 {
		t.Fatalf("accumulated backoff = %v, want 3", badSt.BackoffSec)
	}

	goodSt, err := s.Job(good.ID)
	if err != nil {
		t.Fatal(err)
	}
	if goodSt.State != StateDone {
		t.Fatalf("other tenant's job state = %q (err %q), want done", goodSt.State, goodSt.Error)
	}

	// Three panic-failed attempts = three strikes: the tenant is now
	// quarantined and new submissions are rejected.
	_, err = s.Submit(JobRequest{Tenant: "noisy", Spec: json.RawMessage(okSpec)})
	var quarantine *QuarantineError
	if !errors.As(err, &quarantine) {
		t.Fatalf("quarantined submit error = %v, want *QuarantineError", err)
	}
	// Other tenants are admitted as usual.
	after := submitOK(t, s, "quiet", okSpec, "")
	s.WaitIdle()
	if st, _ := s.Job(after.ID); st.State != StateDone {
		t.Fatalf("post-quarantine job for healthy tenant = %q, want done", st.State)
	}

	m := s.Metrics()
	if v, _ := m.CounterValue("service.tenants_quarantined"); v != 1 {
		t.Fatalf("service.tenants_quarantined = %d, want 1", v)
	}
	if v, _ := m.CounterValue("service.jobs_retried"); v != 2 {
		t.Fatalf("service.jobs_retried = %d, want 2", v)
	}
}

// TestServiceDrainCheckpointsInFlight is acceptance test (b): draining
// stops admission, gives in-flight jobs a bounded step budget, checkpoints
// what could not finish, and flushes a valid mdf.metrics/v1 snapshot.
func TestServiceDrainCheckpointsInFlight(t *testing.T) {
	// Drain mode is staged before the loop starts, so the long job
	// deterministically exceeds the step budget and is checkpointed.
	s := newServer(Config{MaxActive: 2, DrainStepBudget: 3})
	long := submitOK(t, s, "a", longSpec, "")
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	go s.loop()
	snap := s.Drain()

	st, err := s.Job(long.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCheckpointed {
		t.Fatalf("long job state = %q (err %q), want checkpointed", st.State, st.Error)
	}
	if st.CheckpointedParts == 0 {
		t.Fatal("drain checkpointed no partitions of the interrupted job")
	}

	if snap.Schema != obs.SnapshotSchema {
		t.Fatalf("drain snapshot schema = %q, want %q", snap.Schema, obs.SnapshotSchema)
	}
	if v, ok := snap.CounterValue("service.jobs_checkpointed"); !ok || v != 1 {
		t.Fatalf("service.jobs_checkpointed = %d, want 1", v)
	}
	if v, _ := snap.CounterValue("mem.checkpoints"); v == 0 {
		t.Fatal("merged snapshot records no checkpoints")
	}
	// The snapshot round-trips as JSON and admission is closed.
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobRequest{Tenant: "a", Spec: json.RawMessage(okSpec)}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain = %v, want ErrDraining", err)
	}
	s.Close()
}

// TestServiceMetricsDeterministic is acceptance test (d): the same
// submission sequence produces byte-identical /metrics output.
func TestServiceMetricsDeterministic(t *testing.T) {
	render := func() []byte {
		// Stage every submission before the loop starts, so reservation
		// peaks and admission order cannot depend on stepping speed.
		s := newServer(Config{MaxActive: 3})
		defer s.Close()
		submitOK(t, s, "a", okSpec, "")
		submitOK(t, s, "b", longSpec, "")
		submitOK(t, s, "a", okSpec, "")
		submitOK(t, s, "c", boomSpec, boomFaults)
		go s.loop()
		s.WaitIdle()
		out, err := s.MetricsJSON()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := render()
	for i := 0; i < 2; i++ {
		if got := render(); !bytes.Equal(first, got) {
			t.Fatalf("metrics output differs between identical runs:\n%s\nvs\n%s", first, got)
		}
	}
	// The document is the pinned schema.
	var snap obs.Snapshot
	if err := json.Unmarshal(first, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema != obs.SnapshotSchema {
		t.Fatalf("metrics schema = %q, want %q", snap.Schema, obs.SnapshotSchema)
	}
}

func TestServiceCancelQueuedAndRunning(t *testing.T) {
	// No loop: a submitted job stays queued, so cancel-while-queued is
	// deterministic.
	s := newServer(Config{})
	st := submitOK(t, s, "t", okSpec, "")
	if err := s.Cancel(st.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	got, err := s.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled {
		t.Fatalf("state = %q, want canceled", got.State)
	}
	if err := s.Cancel(st.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("cancel terminal job = %v, want ErrTerminal", err)
	}
	if err := s.Cancel("job-9999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown job = %v, want ErrNotFound", err)
	}
	go s.loop()
	s.Close()
}

func TestServiceRejectsBadRequests(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	cases := map[string]JobRequest{
		"no tenant":   {Spec: json.RawMessage(okSpec)},
		"no spec":     {Tenant: "t"},
		"bad spec":    {Tenant: "t", Spec: json.RawMessage(`{"source":{"rows":0},"pipeline":[]}`)},
		"bad faults":  {Tenant: "t", Spec: json.RawMessage(okSpec), Faults: json.RawMessage(`{"panics":[{"times":0}]}`)},
		"fault shape": {Tenant: "t", Spec: json.RawMessage(okSpec), Faults: json.RawMessage(`{"crashes":[{"node":-2}]}`)},
	}
	for name, req := range cases {
		_, err := s.Submit(req)
		var reqErr *RequestError
		if !errors.As(err, &reqErr) {
			t.Fatalf("%s: err = %v, want *RequestError", name, err)
		}
	}
}

// TestEngineContextCancellation pins the engine-level contract the service
// builds on: a canceled context stops the run at the next scheduling
// boundary with the cause wrapped in the error, and the partial snapshot
// stays readable. The step loop is driven turn by turn, so that the job is
// running with stages left when it is canceled whatever the host's speed
// (with a loop goroutine the job could finish between the observation of
// "running" and the Cancel).
func TestEngineContextCancellation(t *testing.T) {
	s := newServer(Config{})
	st := submitOK(t, s, "t", longSpec, "")
	// The first turn admits the job and takes one engine step of it.
	if !turn(s) {
		t.Fatal("no work after a submission")
	}
	got, err := s.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateRunning {
		t.Fatalf("state = %q after one turn, want running", got.State)
	}
	if err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	for turn(s) {
	}
	got, err = s.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled {
		t.Fatalf("state = %q (err %q), want canceled", got.State, got.Error)
	}
	if !strings.Contains(got.Error, "canceled by client") {
		t.Fatalf("error %q does not carry the cancellation cause", got.Error)
	}
	p, err := s.Progress(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.StagesExecuted == 0 || p.StagesExecuted >= p.StagesTotal {
		t.Fatalf("partial snapshot reads %d of %d stages executed, want some but not all", p.StagesExecuted, p.StagesTotal)
	}
}

// TestEngineIsPanicClassification pins the error classification the retry
// path depends on.
func TestEngineIsPanicClassification(t *testing.T) {
	if engine.IsPanic(errors.New("plain")) {
		t.Fatal("plain error classified as panic")
	}
	if engine.IsPanic(nil) {
		t.Fatal("nil classified as panic")
	}
}
