package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"

	"metadataflow/internal/ckptstore"
	"metadataflow/internal/faults"
	"metadataflow/internal/journal"
	"metadataflow/internal/obs"
)

// This file is the service's crash-recovery path. A durable server
// (Config.StateDir set, built with Open) write-ahead-journals every job
// lifecycle transition (internal/journal) and mirrors engine checkpoints
// into a content-addressed store (internal/ckptstore). On boot, Open
// replays the journal's valid prefix and rebuilds admission state:
//
//   - terminal jobs are restored verbatim — final state, counters,
//     metrics snapshot, audit surface — and their quota stays released:
//     replay makes the same lifecycle.go transitions the live server made
//     before writing each record, so nothing is booked a second way;
//   - incomplete jobs re-reserve their tenant quota and requeue at
//     attempt zero in admitted order: deterministic re-execution from the
//     journaled spec and fault plan IS the recovery mechanism, and the
//     engine resumes from whichever checkpoint-store entries verify;
//   - a dedup index maps (tenant, spec content hash) to recovered job
//     IDs, so clients that blindly re-submit their jobs after a crash get
//     the recovered job back instead of a duplicate admission.
//
// Torn journal tails and corrupt records cost only the records past the
// damage: replay trusts the longest valid prefix and the journal writer
// truncates the rest before appending resumes.

// recoveryCounters aggregates restart-recovery events for /metrics. They
// exist only on durable servers, and the crash-restart oracle strips them
// before comparing a restarted run's metrics against an uninterrupted one.
type recoveryCounters struct {
	jobsRecovered    int64
	terminalReplayed int64
	requeued         int64
	dedupHits        int64
	journalRecords   int64
	journalTruncated int64
	appendErrors     int64
}

// Open starts a server like New but with crash-consistent state rooted at
// cfg.StateDir: the job journal is replayed before the step loop starts,
// so recovered queued jobs begin executing immediately. An empty StateDir
// yields a memory-only server identical to New's.
func Open(cfg Config) (*Server, error) {
	s := newServer(cfg)
	if s.cfg.StateDir != "" {
		if err := s.openState(); err != nil {
			return nil, err
		}
	}
	go s.loop()
	return s, nil
}

// openState opens the checkpoint store, replays the journal's valid
// prefix into admission state, and readies the journal for appends. No
// lock is needed: the step loop has not started and the server has not
// been published.
func (s *Server) openState() error {
	s.ckpts = ckptstore.New(filepath.Join(s.cfg.StateDir, "ckpt"))
	if err := s.ckpts.Open(); err != nil {
		return err
	}
	jdir := filepath.Join(s.cfg.StateDir, "journal")
	recs, err := journal.Replay(jdir)
	if err != nil {
		var ce *journal.CorruptionError
		if !errors.As(err, &ce) {
			return err
		}
		// Damage past the valid prefix: recovery proceeds from the
		// prefix, and the writer's Open truncates the rest below.
		s.rctr.journalTruncated++
	}
	if err := s.replay(recs); err != nil {
		return err
	}
	jnl := journal.New(jdir, journal.Options{NoSync: s.cfg.JournalNoSync})
	if err := jnl.Open(); err != nil {
		return err
	}
	s.jnl = jnl
	return nil
}

// replay decodes journal records in order and makes the transition each
// one stands for — the same functions (lifecycle.go) the live server
// called before it wrote the record — then returns every incomplete job
// to the queue.
func (s *Server) replay(recs []journal.Record) error {
	s.rctr.journalRecords = int64(len(recs))
	// docs holds the journaled spec document of every job replayed so far
	// that is not terminal: what the requeue below plans from.
	docs := make(map[string]json.RawMessage)
	for _, rec := range recs {
		if rec.Kind == journal.KindAdmitted {
			if err := s.replayAdmitted(rec); err != nil {
				return err
			}
			docs[rec.Job] = rec.Spec
			continue
		}
		j, ok := s.jobs[rec.Job]
		if !ok {
			return fmt.Errorf("service: recovery: %s record for unknown job %s (seq %d)", rec.Kind, rec.Job, rec.Seq)
		}
		switch rec.Kind {
		case journal.KindStarted:
			s.startedLocked(j, rec.Attempt, rec.TSec)
		case journal.KindRetried:
			s.retriedLocked(j, rec.BackoffSec.Seconds())
		case journal.KindCheckpointed:
			j.checkpointed = rec.Parts
		case journal.KindTerminal:
			if err := s.replayTerminal(j, rec); err != nil {
				return err
			}
			delete(docs, rec.Job)
		default:
			return fmt.Errorf("service: recovery: unknown record kind %q (seq %d)", rec.Kind, rec.Seq)
		}
	}
	// Requeue incomplete jobs in admitted order at attempt zero. Their
	// journaled spec and fault plan replay deterministically, so
	// re-execution reproduces the lost outcome. Each gets its plan here, from
	// the pipeline a live submission goes through (admission.go) — the
	// verdict aside: the job was admitted, and stays so.
	for _, id := range s.order {
		j := s.jobs[id]
		if j.terminal() {
			continue
		}
		v, g, err := s.vet(docs[id])
		if err == nil {
			j.plan, err = v.buildPlan(g)
		}
		if err != nil {
			return fmt.Errorf("service: recovery: job %s spec: %w", id, err)
		}
		j.chains = v.chains
		if !s.queue.Push(j.id, j.tenant, j.priority) {
			return fmt.Errorf("service: recovery: queue full requeuing %s", j.id)
		}
		s.recoveredLocked(j)
		s.rctr.requeued++
	}
	s.rctr.jobsRecovered = int64(len(s.jobs))
	return nil
}

// replayAdmitted decodes an admitted record into the job it admitted,
// re-reserves its quota and indexes it for resubmission dedup. The spec
// document is not read here: only a job still incomplete when replay ends
// needs it again.
func (s *Server) replayAdmitted(rec journal.Record) error {
	var fplan *faults.Plan
	if len(rec.Faults) > 0 {
		var err error
		fplan, err = faults.Parse(rec.Faults)
		if err != nil {
			return fmt.Errorf("service: recovery: job %s faults: %w", rec.Job, err)
		}
	}
	if _, dup := s.jobs[rec.Job]; dup {
		return fmt.Errorf("service: recovery: duplicate admitted record for %s (seq %d)", rec.Job, rec.Seq)
	}
	j := &job{
		id:       rec.Job,
		tenant:   rec.Tenant,
		priority: rec.Priority,
		deadline: rec.DeadlineSec,
		fplan:    fplan,
		reserve:  rec.ReserveBytes,
		state:    StateQueued,
		specHash: rec.SpecHash,
	}
	if err := s.quotas.Reserve(j.tenant, j.reserve); err != nil {
		return fmt.Errorf("service: recovery: re-reserving quota for %s: %w", j.id, err)
	}
	var n int
	if _, err := fmt.Sscanf(j.id, "job-%d", &n); err == nil && n > s.seq {
		s.seq = n
	}
	key := j.tenant + "\x1f" + j.specHash
	s.recovered[key] = append(s.recovered[key], j.id)
	s.admittedLocked(j)
	return nil
}

// replayTerminal decodes a terminal record onto its job — the outcome, the
// audit surface, the metrics snapshot and what the job had been charged —
// and retires it. The record stands for the job's strikes as well as its
// retirement, so the strikes are made first.
func (s *Server) replayTerminal(j *job, rec journal.Record) error {
	if !terminalState(rec.State) {
		return fmt.Errorf("service: recovery: job %s unknown terminal state %q", j.id, rec.State)
	}
	var jobErr error
	if rec.Error != "" {
		jobErr = errors.New(rec.Error)
	}
	j.end = rec.CompletionSec
	j.checkpointed = rec.Parts
	j.selections = rec.Selections
	j.auditLineage = rec.AuditLineage
	j.auditBooks = rec.AuditBooks
	if len(rec.Snapshot) > 0 {
		snap := &obs.Snapshot{}
		if err := json.Unmarshal(rec.Snapshot, snap); err != nil {
			return fmt.Errorf("service: recovery: job %s snapshot: %w", j.id, err)
		}
		j.snapshot = snap
	}
	j.retries, j.sheds, j.deadlineHit = rec.Retries, rec.Sheds, rec.DeadlineExceeded
	for j.strikes < rec.Strikes {
		s.strikeLocked(j)
	}
	s.terminalLocked(j, rec.State, jobErr)
	s.rctr.terminalReplayed++
	return nil
}

// takeRecoveredLocked consumes the oldest recovered job matching the
// (tenant, spec content hash) dedup key, or nil when the submission is
// genuinely new. FIFO consumption keeps repeated identical submissions
// mapped to recovered jobs in their original admission order.
func (s *Server) takeRecoveredLocked(tenant, specHash string) *job {
	key := tenant + "\x1f" + specHash
	ids := s.recovered[key]
	if len(ids) == 0 {
		return nil
	}
	if len(ids) == 1 {
		delete(s.recovered, key)
	} else {
		s.recovered[key] = ids[1:]
	}
	s.rctr.dedupHits++
	return s.jobs[ids[0]]
}

// journalLocked appends one lifecycle record. Journal failures fail open:
// the error is counted, the journal is closed, and the service keeps
// running memory-only — degraded durability must never take down
// admission.
func (s *Server) journalLocked(rec journal.Record) {
	if s.jnl == nil {
		return
	}
	if _, err := s.jnl.Append(rec); err != nil {
		s.rctr.appendErrors++
		_ = s.jnl.Close() //lint:allow droppederr -- already failing open; nothing to do with a close error
		s.jnl = nil
	}
}

// journalTerminalLocked writes a job's terminal record: the full outcome,
// the counter deltas it contributed, and its metrics snapshot, so replay
// restores the job without re-running anything.
func (s *Server) journalTerminalLocked(j *job) {
	if s.jnl == nil {
		return
	}
	rec := journal.Record{
		Kind: journal.KindTerminal, Job: j.id, Tenant: j.tenant,
		TSec:             j.end,
		State:            j.state,
		CompletionSec:    j.end,
		Parts:            j.checkpointed,
		Retries:          j.retries,
		Sheds:            j.sheds,
		Strikes:          j.strikes,
		DeadlineExceeded: j.deadlineHit,
		Selections:       j.selections,
		AuditLineage:     j.auditLineage,
		AuditBooks:       j.auditBooks,
	}
	if j.err != nil {
		rec.Error = j.err.Error()
	}
	if j.snapshot != nil {
		if b, err := json.Marshal(j.snapshot); err == nil {
			rec.Snapshot = b
		}
	}
	s.journalLocked(rec)
}
