package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"reflect"
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
// which exercises strikes replay), dies, and a reopened server
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
		{Seq: 3, Kind: journal.KindStarted, Job: "job-0001", Tenant: "alpha"},
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

// TestRecoveryRunsJobItsVetNowCondemns: a job admitted under one
// configuration is recovered by a server whose vet condemns its document.
// The job was admitted and stays so: the memo entry of the document holds
// findings and no plan, and the job is planned apart and runs to its end.
func TestRecoveryRunsJobItsVetNowCondemns(t *testing.T) {
	cfg := Config{StateDir: t.TempDir(), JournalNoSync: true}.withDefaults()
	recs := []journal.Record{{Seq: 1, Kind: journal.KindAdmitted, Job: "job-0001", Tenant: "alpha",
		ReserveBytes: sim.Bytes(cfg.Workers) * cfg.MemPerWorker, Spec: json.RawMessage(hugeSpec)}}
	if err := journal.WriteAll(cfg.StateDir+"/journal", recs, journal.Options{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.WaitIdle()
	if st, err := s.Job("job-0001"); err != nil || st.State != StateDone {
		t.Errorf("the recovered job ended %+v, %v; want done", st, err)
	}
	if _, err := s.Submit(JobRequest{Tenant: "beta", Spec: json.RawMessage(hugeSpec)}); !errors.As(err, new(*VetError)) {
		t.Errorf("a new submission of the document was answered %v, want its findings", err)
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

// TestRecoveryRefusesRetriedRecord: the service no longer retries a job, so
// a journal that holds a "retried" record, which only a server that did
// could write, is refused by name rather than replayed a second way.
func TestRecoveryRefusesRetriedRecord(t *testing.T) {
	cfg := Config{StateDir: t.TempDir(), JournalNoSync: true}
	recs := []journal.Record{
		{Seq: 1, Kind: journal.KindAdmitted, Job: "job-0001", Tenant: "alpha",
			ReserveBytes: 1 << 20, Spec: json.RawMessage(okSpec)},
		{Seq: 2, Kind: journal.KindStarted, Job: "job-0001", Tenant: "alpha"},
		{Seq: 3, Kind: "retried", Job: "job-0001", Tenant: "alpha"},
	}
	if err := journal.WriteAll(cfg.StateDir+"/journal", recs, journal.Options{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(cfg)
	if err == nil {
		s.Close()
		t.Fatal("a journal with a retried record opened")
	}
	if want := `unknown record kind "retried"`; !strings.Contains(err.Error(), want) {
		t.Errorf("open error %q does not say %s", err, want)
	}
}

// TestMemoryOnlyServerUnchanged pins the compatibility contract: a server
// opened without a StateDir never journals, never emits recovery counters,
// and its metrics bytes are identical to a pre-durability server's.
func TestMemoryOnlyServerUnchanged(t *testing.T) {
	s := open(t, Config{})
	defer s.Close()
	if s.jnl != nil || s.ckpts != nil {
		t.Fatal("a server without a StateDir built durable state")
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

// TestJournalRecordFieldsAreWritten: every field of journal.Record is
// written by some lifecycle transition, since a field nothing writes is dead
// weight in every frame. The mixed sequence on a durable server, then a job
// drained in mid-run by a restart of it, fill each field in at least one
// record.
func TestJournalRecordFieldsAreWritten(t *testing.T) {
	cfg := mixedConfig()
	cfg.StateDir, cfg.JournalNoSync = t.TempDir(), true
	s := newServer(cfg)
	if err := s.openState(); err != nil {
		t.Fatal(err)
	}
	runMixedSequence(t, s)
	s.Close()

	// Draining is staged before the loop starts, so the job is checkpointed
	// after its step budget whatever the host's speed. The restart has the
	// default cluster, whose memory holds partitions a drain must write.
	r := newServer(Config{StateDir: cfg.StateDir, JournalNoSync: true})
	if err := r.openState(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(JobRequest{Tenant: "e", Priority: 1, Spec: json.RawMessage(longSpec)}); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	r.draining = true
	r.mu.Unlock()
	go r.loop()
	r.Close()

	recs, err := journal.Replay(cfg.StateDir + "/journal")
	if err != nil {
		t.Fatal(err)
	}
	written := make(map[string]bool)
	for _, rec := range recs {
		v := reflect.ValueOf(rec)
		for i := 0; i < v.NumField(); i++ {
			if !v.Field(i).IsZero() {
				written[v.Type().Field(i).Name] = true
			}
		}
	}
	// The fields these inputs leave zero, each for a reason no input can
	// change: the audit fields carry what a run's end-of-run self-audit
	// found, and no correct run gives it anything to find.
	unwritten := map[string]bool{"AuditLineage": true, "AuditBooks": true}
	rt := reflect.TypeOf(journal.Record{})
	for i := 0; i < rt.NumField(); i++ {
		if name := rt.Field(i).Name; written[name] == unwritten[name] {
			t.Errorf("Record.%s: written %v in %d records, expected %v", name, written[name], len(recs), !unwritten[name])
		}
	}
	if last := recs[len(recs)-1]; last.Kind != journal.KindTerminal || last.State != StateCheckpointed || recs[len(recs)-2].Kind != journal.KindStarted {
		t.Errorf("the journal ends %s/%s (%s), want the drained job's started record and its terminal one, state checkpointed", recs[len(recs)-2].Kind, last.Kind, last.State)
	}
}

// rawFrame frames a record payload as a journal segment holds it: its
// length and its CRC-32 (IEEE), big-endian, then the payload.
func rawFrame(payload string) []byte {
	b := make([]byte, 8, 8+len(payload))
	binary.BigEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[4:8], crc32.ChecksumIEEE([]byte(payload)))
	return append(b, payload...)
}

// TestReplaySkipsLegacyCheckpointedRecord: journals once held a record of
// kind "checkpointed", carrying "parts", between a drained job's started and
// terminal records. A state directory holding one still opens: a drained
// job whose terminal record follows it is restored as it ended, and one
// whose journal ends at it is requeued and runs to the end an uninterrupted
// run reaches.
func TestReplaySkipsLegacyCheckpointedRecord(t *testing.T) {
	want := answerOf(t, newServer(Config{}), JobRequest{Tenant: "b", Spec: json.RawMessage(smallNested)})

	s := scriptServer(t, t.TempDir())
	cut := submitOK(t, s, "b", smallNested, "")
	for i := 0; i < 17; i++ {
		turn(s)
	}
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	for turn(s) {
	}
	drained, err := s.Job(cut.ID)
	if err != nil || drained.State != StateCheckpointed {
		t.Fatalf("the drained job ended %+v (%v), want checkpointed", drained, err)
	}
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	if err := s.jnl.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := journal.Replay(filepath.Join(s.cfg.StateDir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	term := recs[len(recs)-1]
	if term.Kind != journal.KindTerminal || term.Job != cut.ID {
		t.Fatalf("the journal ends %s/%s, want the drained job's terminal record", term.Kind, term.Job)
	}

	// legacyState writes the journal as it was written then: the
	// checkpointed record takes the terminal record's sequence number, and
	// the terminal record, if kept, the next one.
	legacyState := func(keepTerminal bool) string {
		dir := t.TempDir()
		jdir := filepath.Join(dir, "journal")
		if err := journal.WriteAll(jdir, recs[:len(recs)-1], journal.Options{NoSync: true}); err != nil {
			t.Fatal(err)
		}
		ckpt := fmt.Sprintf(`{"seq":%d,"kind":"checkpointed","job":%q,"tenant":"b","tSec":%v,"parts":3}`, term.Seq, cut.ID, float64(term.TSec))
		if err := journal.AppendRaw(jdir, rawFrame(ckpt)); err != nil {
			t.Fatal(err)
		}
		if keepTerminal {
			rec := term
			rec.Seq++
			frame, err := journal.EncodeFrame(rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := journal.AppendRaw(jdir, frame); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}

	r := scriptServer(t, legacyState(true))
	if got := r.rctr.journalRecords; got != int64(len(recs)+1) {
		t.Errorf("replayed %d records, want %d", got, len(recs)+1)
	}
	st, err := r.Job(cut.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, drained) {
		t.Errorf("the restored job is\n %+v\nit ended\n %+v", st, drained)
	}

	r = scriptServer(t, legacyState(false))
	if got := runOnOnePlan(t, r, cut.ID, planOf(r, cut.ID)); got != 1 {
		t.Errorf("the recovered job made %d runs, want 1", got)
	}
	st, err = r.Job(cut.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := answer{State: st.State, JobErr: st.Error, Selections: st.Selections, Completion: st.CompletionSec}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the recovered job ended\n %+v\nuninterrupted it ends\n %+v", got, want)
	}
}
