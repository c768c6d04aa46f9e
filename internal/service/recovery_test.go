package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"metadataflow/internal/journal"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/sim"
	"metadataflow/internal/spec"
)

// otherSpec differs from okSpec in content (and therefore content hash) so
// dedup tests can tell "same job resubmitted" from "genuinely new job".
const otherSpec = `{
  "name": "other",
  "source": {"rows": 300, "partitions": 2, "virtualBytes": 1048576, "seed": 11},
  "pipeline": [{"op": {"name": "std", "fn": "standardize"}}]
}`

// metricsSansRecovery renders a server's metrics with the path-dependent
// service.recovery.* counters stripped — the equivalence surface for
// comparing a restarted server against one that never died. Counters
// ending in one of alsoDrop are stripped too.
func metricsSansRecovery(t *testing.T, s *Server, alsoDrop ...string) []byte {
	t.Helper()
	m := s.Metrics()
	kept := m.Counters[:0]
	for _, c := range m.Counters {
		drop := strings.HasPrefix(c.Name, "service.recovery.")
		for _, suffix := range alsoDrop {
			drop = drop || strings.HasSuffix(c.Name, suffix)
		}
		if !drop {
			kept = append(kept, c)
		}
	}
	m.Counters = kept
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func statusJSON(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	st, err := s.Job(id)
	if err != nil {
		t.Fatalf("job %s: %v", id, err)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDurableRestartRestoresTerminalJobs is the tentpole round trip: a
// durable server runs jobs to terminal states (including a failing one,
// which exercises retried/strikes replay), dies, and a reopened server
// answers identically — same job statuses, same metrics bytes modulo the
// recovery counters — and deduplicates blind resubmissions onto the
// recovered jobs.
func TestDurableRestartRestoresTerminalJobs(t *testing.T) {
	cfg := Config{StateDir: t.TempDir(), JournalNoSync: true}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{
		submitOK(t, s, "alpha", okSpec, "").ID,
		submitOK(t, s, "beta", okSpec, "").ID,
		submitOK(t, s, "gamma", boomSpec, boomFaults).ID,
	}
	s.WaitIdle()
	golden := make(map[string][]byte)
	for _, id := range ids {
		golden[id] = statusJSON(t, s, id)
	}
	goldenMetrics := metricsSansRecovery(t, s)
	s.Close()

	r, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	for _, id := range ids {
		if got := statusJSON(t, r, id); !bytes.Equal(got, golden[id]) {
			t.Errorf("job %s after restart:\n got %s\nwant %s", id, got, golden[id])
		}
	}
	if got := metricsSansRecovery(t, r); !bytes.Equal(got, goldenMetrics) {
		t.Errorf("metrics diverged across restart:\n got %s\nwant %s", got, goldenMetrics)
	}
	m := r.Metrics()
	if got, _ := m.CounterValue("service.recovery.jobs_recovered"); got != 3 {
		t.Errorf("jobs_recovered = %d, want 3", got)
	}
	if got, _ := m.CounterValue("service.recovery.terminal_replayed"); got != 3 {
		t.Errorf("terminal_replayed = %d, want 3", got)
	}

	// A client blindly resubmitting after the crash gets the recovered job
	// back — same ID, no new admission.
	before, _ := r.Metrics().CounterValue("service.jobs_submitted")
	if st := submitOK(t, r, "alpha", okSpec, ""); st.ID != ids[0] {
		t.Errorf("dedup resubmit got %s, want recovered %s", st.ID, ids[0])
	}
	after, _ := r.Metrics().CounterValue("service.jobs_submitted")
	if after != before {
		t.Errorf("dedup resubmit changed jobs_submitted %d -> %d", before, after)
	}
	// A genuinely new spec continues the recovered ID sequence.
	if st := submitOK(t, r, "alpha", otherSpec, ""); st.ID != "job-0004" {
		t.Errorf("fresh submit after recovery got %s, want job-0004", st.ID)
	}
	r.WaitIdle()
}

// TestRecoveryRequeuesIncompleteJobs hand-builds a journal whose jobs never
// reached terminal records — one still queued, one mid-run — and checks a
// reopened server re-executes both to completion.
func TestRecoveryRequeuesIncompleteJobs(t *testing.T) {
	cfg := Config{StateDir: t.TempDir(), JournalNoSync: true}
	cfg = cfg.withDefaults()
	reserve := sim.Bytes(cfg.Workers) * cfg.MemPerWorker
	recs := []journal.Record{
		{Seq: 1, Kind: journal.KindAdmitted, Job: "job-0001", Tenant: "alpha",
			ReserveBytes: reserve, Spec: json.RawMessage(okSpec)},
		{Seq: 2, Kind: journal.KindAdmitted, Job: "job-0002", Tenant: "alpha",
			ReserveBytes: reserve, Spec: json.RawMessage(otherSpec)},
		{Seq: 3, Kind: journal.KindStarted, Job: "job-0001", Tenant: "alpha", Attempt: 1},
	}
	if err := journal.WriteAll(cfg.StateDir+"/journal", recs, journal.Options{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.WaitIdle()
	for _, id := range []string{"job-0001", "job-0002"} {
		st, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Errorf("recovered job %s state %q (err %q), want done", id, st.State, st.Error)
		}
	}
	m := s.Metrics()
	if got, _ := m.CounterValue("service.recovery.jobs_requeued"); got != 2 {
		t.Errorf("jobs_requeued = %d, want 2", got)
	}
	if got, _ := m.CounterValue("service.jobs_done"); got != 2 {
		t.Errorf("jobs_done = %d, want 2", got)
	}
}

// TestRecoveryReReservesQuota proves replayed admissions hold real quota:
// after recovering a journal whose incomplete job reserved the tenant's
// whole budget, a new submission for that tenant is quota-rejected while
// an identical resubmission rides the dedup index without double-reserving.
// The server's step loop is deliberately not started so the recovered job
// cannot complete (and release) underneath the assertions.
func TestRecoveryReReservesQuota(t *testing.T) {
	cfg := Config{
		StateDir: t.TempDir(), JournalNoSync: true,
		Workers: 2, MemPerWorker: 1 << 20, TenantQuota: 2 << 20,
	}
	sp, err := spec.Parse([]byte(okSpec))
	if err != nil {
		t.Fatal(err)
	}
	recs := []journal.Record{
		{Seq: 1, Kind: journal.KindAdmitted, Job: "job-0001", Tenant: "alpha",
			ReserveBytes: 2 << 20, SpecHash: sp.HashReport().Spec.String(),
			Spec: json.RawMessage(okSpec)},
	}
	if err := journal.WriteAll(cfg.StateDir+"/journal", recs, journal.Options{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	s := newServer(cfg)
	if err := s.openState(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobRequest{Tenant: "alpha", Spec: json.RawMessage(otherSpec)}); err == nil {
		t.Fatal("over-quota submit after recovery succeeded")
	} else {
		var qe *memorymgr.QuotaError
		if !errors.As(err, &qe) {
			t.Fatalf("over-quota submit error = %v, want *QuotaError", err)
		}
	}
	st, err := s.Submit(JobRequest{Tenant: "alpha", Spec: json.RawMessage(okSpec)})
	if err != nil {
		t.Fatalf("dedup resubmit: %v", err)
	}
	if st.ID != "job-0001" || st.State != StateQueued {
		t.Fatalf("dedup resubmit got %s/%s, want job-0001/queued", st.ID, st.State)
	}
	// Drain the recovered work normally now that assertions are done.
	go s.loop()
	s.WaitIdle()
	s.Close()
}

// TestRecoveryHealsCorruptJournal damages a finished server's journal — a
// bit flip in the final record plus a torn half-written frame — and checks
// the reopened server recovers the valid prefix, re-executes the job whose
// terminal record was lost, and leaves a journal whose full history replays
// cleanly with dense sequence numbers.
func TestRecoveryHealsCorruptJournal(t *testing.T) {
	cfg := Config{StateDir: t.TempDir(), JournalNoSync: true}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitOK(t, s, "alpha", okSpec, "")
	submitOK(t, s, "beta", otherSpec, "")
	s.WaitIdle()
	s.Close()

	jdir := cfg.StateDir + "/journal"
	recs, err := journal.Replay(jdir)
	if err != nil {
		t.Fatalf("golden journal does not replay: %v", err)
	}
	if len(recs) < 4 {
		t.Fatalf("golden journal only has %d records", len(recs))
	}
	if err := journal.FlipBit(jdir, int64(len(recs)-1), 13); err != nil {
		t.Fatal(err)
	}
	torn, err := journal.EncodeFrame(journal.Record{Seq: int64(len(recs) + 1), Kind: journal.KindStarted, Job: "job-0099"})
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.AppendRaw(jdir, torn[:5]); err != nil {
		t.Fatal(err)
	}

	r, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen over damaged journal: %v", err)
	}
	if got, _ := r.Metrics().CounterValue("service.recovery.journal_truncated"); got != 1 {
		t.Errorf("journal_truncated = %d, want 1", got)
	}
	r.WaitIdle()
	for _, id := range []string{"job-0001", "job-0002"} {
		st, err := r.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Errorf("job %s state %q after heal, want done", id, st.State)
		}
	}
	r.Close()

	healed, err := journal.Replay(jdir)
	if err != nil {
		t.Fatalf("healed journal does not replay: %v", err)
	}
	for i, rec := range healed {
		if rec.Seq != int64(i+1) {
			t.Fatalf("healed journal seq %d at index %d — not dense", rec.Seq, i)
		}
	}
	if len(healed) < len(recs) {
		t.Errorf("healed journal has %d records, fewer than golden prefix %d", len(healed), len(recs))
	}
}

// TestMemoryOnlyServerUnchanged pins the compatibility contract: a server
// built with New never journals, never emits recovery counters, and its
// metrics bytes are identical to a pre-durability server's.
func TestMemoryOnlyServerUnchanged(t *testing.T) {
	s := New(Config{StateDir: "should-be-ignored"})
	defer s.Close()
	if s.jnl != nil || s.ckpts != nil {
		t.Fatal("New built durable state")
	}
	submitOK(t, s, "alpha", okSpec, "")
	s.WaitIdle()
	m := s.Metrics()
	for _, c := range m.Counters {
		if strings.HasPrefix(c.Name, "service.recovery.") {
			t.Fatalf("memory-only server emitted %s", c.Name)
		}
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("service.jobs_done")) {
		t.Fatal("metrics missing service counters")
	}
}
