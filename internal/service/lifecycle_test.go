package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"metadataflow/internal/memorymgr"
)

// summedCounters are the service lines that metricsLocked computes as the
// sum of their per-tenant lines.
var summedCounters = []string{
	"submitted", "done", "failed", "canceled", "checkpointed",
	"retried", "quota_rejected", "quarantine_rejected",
}

// runMixedSequence stages one of every lifecycle outcome on a server whose
// step loop has not started, then runs it to idle: a job canceled while
// running, one canceled while queued, a quota refusal, a queue shed, a
// deadline failure, a job that panics through its retry budget (tripping
// its tenant's quarantine) and a clean completion, then a quarantine
// refusal. Staging before the loop makes every outcome deterministic.
func runMixedSequence(t *testing.T, s *Server) {
	t.Helper()
	running := submitOK(t, s, "f", longSpec, "")
	s.mu.Lock()
	s.admitLocked() // job-0001 is running before anything else is queued
	s.mu.Unlock()
	if err := s.Cancel(running.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}

	submitOK(t, s, "a", okSpec, "")
	var qe *memorymgr.QuotaError
	if _, err := s.Submit(JobRequest{Tenant: "a", Spec: json.RawMessage(okSpec)}); !errors.As(err, &qe) {
		t.Fatalf("second job of tenant a: err = %v, want *QuotaError", err)
	}
	queued := submitOK(t, s, "d", okSpec, "")
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if _, err := s.Submit(JobRequest{Tenant: "b", DeadlineSec: 1e-9, Spec: json.RawMessage(longSpec)}); err != nil {
		t.Fatalf("deadline job: %v", err)
	}
	submitOK(t, s, "c", boomSpec, boomFaults)
	if _, err := s.Submit(JobRequest{Tenant: "d", Spec: json.RawMessage(okSpec)}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit into a full queue: err = %v, want ErrQueueFull", err)
	}

	go s.loop()
	s.WaitIdle()
	var quarantine *QuarantineError
	if _, err := s.Submit(JobRequest{Tenant: "c", Spec: json.RawMessage(okSpec)}); !errors.As(err, &quarantine) {
		t.Fatalf("submit from the struck-out tenant: err = %v, want *QuarantineError", err)
	}
}

// mixedConfig leaves each tenant quota room for one job and the queue
// room for the three jobs the sequence keeps waiting.
func mixedConfig() Config {
	return Config{Workers: 2, MemPerWorker: 1 << 20, TenantQuota: 2 << 20, QueueCap: 3, MaxActive: 1}
}

// TestServiceCountersAreTenantSums pins the single booking path from
// /metrics alone: every summed service counter equals the sum of its
// tenant lines, and the sequence produced one of everything.
func TestServiceCountersAreTenantSums(t *testing.T) {
	s := newServer(mixedConfig())
	defer s.Close()
	runMixedSequence(t, s)

	m := s.Metrics()
	for _, name := range summedCounters {
		var sum int64
		for _, c := range m.Counters {
			if strings.HasPrefix(c.Name, "service.tenant.") && strings.HasSuffix(c.Name, ".jobs_"+name) {
				sum += c.Value
			}
		}
		if got, _ := m.CounterValue("service.jobs_" + name); got != sum {
			t.Errorf("service.jobs_%s = %d, tenant lines sum to %d", name, got, sum)
		}
	}
	for name, want := range map[string]int64{
		"service.jobs_submitted":           5,
		"service.jobs_done":                1,
		"service.jobs_canceled":            2,
		"service.jobs_failed":              2,
		"service.jobs_retried":             2,
		"service.jobs_quota_rejected":      1,
		"service.jobs_quarantine_rejected": 1,
		"service.jobs_shed":                1,
		"service.jobs_deadline_exceeded":   1,
		"service.tenants_quarantined":      1,
		"service.tenant.c.jobs_retried":    2,
		"service.tenant.d.jobs_shed":       1,
	} {
		if got, _ := m.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// journaledMetrics renders /metrics without the counters a restart cannot
// reproduce: service.recovery.* and the refusals, which admit no job and
// therefore write no journal record.
func journaledMetrics(t *testing.T, s *Server) []byte {
	t.Helper()
	return metricsSansRecovery(t, s, "_rejected", ".jobs_shed")
}

// watchLifecycle renders the lifecycle events of the watch log, one JSON
// line each. Seq is zeroed: it is dense over lifecycle and bucket events,
// and replay re-emits only the former.
func watchLifecycle(t *testing.T, s *Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range s.WatchEvents(0) {
		if ev.Kind != "lifecycle" {
			continue
		}
		ev.Seq = 0
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestReplayBooksLikeLive runs the mixed sequence on a durable server,
// restarts it, and requires the reopened server — whose books were written
// by journal replay through the same transition functions — to serve the
// same /metrics and the same /watch lifecycle log.
func TestReplayBooksLikeLive(t *testing.T) {
	cfg := mixedConfig()
	cfg.StateDir = t.TempDir()
	cfg.JournalNoSync = true
	s := newServer(cfg)
	if err := s.openState(); err != nil {
		t.Fatal(err)
	}
	runMixedSequence(t, s)
	wantMetrics, wantWatch := journaledMetrics(t, s), watchLifecycle(t, s)
	s.Close()

	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.WaitIdle()
	if got := journaledMetrics(t, r); !bytes.Equal(got, wantMetrics) {
		t.Errorf("metrics after restart differ:\n%s\nbefore:\n%s", got, wantMetrics)
	}
	if got := watchLifecycle(t, r); !bytes.Equal(got, wantWatch) {
		t.Errorf("watch lifecycle after restart differs:\n%s\nbefore:\n%s", got, wantWatch)
	}
	if n, _ := r.Metrics().CounterValue("service.recovery.jobs_requeued"); n != 0 {
		t.Errorf("restart requeued %d jobs, want 0: every job was terminal", n)
	}
}

// TestRetryShedFailsJob: a panic-failed job whose requeue finds the
// admission queue full is failed with the shed recorded on the service
// line only — it is a job outcome, not a refused submission.
func TestRetryShedFailsJob(t *testing.T) {
	s := newServer(Config{QueueCap: 1, MaxActive: 1})
	defer s.Close()
	boom := submitOK(t, s, "noisy", boomSpec, boomFaults)
	s.mu.Lock()
	s.admitLocked()
	s.mu.Unlock()
	submitOK(t, s, "quiet", okSpec, "") // fills the queue while boom runs
	go s.loop()
	s.WaitIdle()

	st, err := s.Job(boom.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.Attempts != 1 || !strings.Contains(st.Error, "retry shed") {
		t.Fatalf("status = %+v, want failed after one attempt with a retry-shed error", st)
	}
	m := s.Metrics()
	for name, want := range map[string]int64{
		"service.jobs_shed":              1,
		"service.tenant.noisy.jobs_shed": 0,
		"service.jobs_retried":           0,
		"service.jobs_failed":            1,
		"service.jobs_done":              1,
	} {
		if got, _ := m.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
